//! DRAM technology timing and memory-controller models.
//!
//! Table II of the paper lists three memory technologies in play: host
//! DDR5-4800 (8 channels per socket), device DDR4-2400 (2 channels on the
//! Agilex-7), and the BlueField-3's DDR5-5200. [`DramTech`] captures their
//! latency/bandwidth envelopes; [`MemoryController`] adds per-channel
//! service serialization and the write queue of [`crate::write_queue`];
//! [`MemorySystem`] interleaves lines across channels.

use sim_core::time::{Duration, Time};

use crate::line::{LineAddr, LINE_BYTES};
use crate::write_queue::WriteQueue;

/// A DRAM technology with its timing envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramTech {
    /// Host memory: DDR5-4800 (38.4 GB/s/channel).
    Ddr5_4800,
    /// CXL device memory: DDR4-2400 (19.2 GB/s/channel, Table II).
    Ddr4_2400,
    /// BlueField-3 SNIC memory: DDR5-5200 (41.6 GB/s/channel, Table II).
    Ddr5_5200,
}

impl DramTech {
    /// Idle-bank access latency (row activate + CAS + transfer overheads).
    pub fn access_latency(self) -> Duration {
        match self {
            DramTech::Ddr5_4800 => Duration::from_nanos(46),
            DramTech::Ddr4_2400 => Duration::from_nanos(58),
            DramTech::Ddr5_5200 => Duration::from_nanos(44),
        }
    }

    /// Peak per-channel bandwidth in GB/s.
    pub fn channel_bandwidth_gbps(self) -> f64 {
        match self {
            DramTech::Ddr5_4800 => 38.4,
            DramTech::Ddr4_2400 => 19.2,
            DramTech::Ddr5_5200 => 41.6,
        }
    }

    /// Time the channel is occupied transferring one 64 B line.
    pub fn line_transfer_time(self) -> Duration {
        Duration::from_ns_f64(LINE_BYTES as f64 / self.channel_bandwidth_gbps())
    }
}

/// One DRAM channel: serializes line transfers at channel bandwidth, adds
/// access latency, and absorbs writes into a bounded write queue.
///
/// # Examples
///
/// ```
/// use mem_subsys::dram::{DramTech, MemoryController};
/// use sim_core::time::Time;
///
/// let mut mc = MemoryController::new(DramTech::Ddr4_2400, 32);
/// let done = mc.read(Time::ZERO);
/// assert!(done > Time::ZERO);
/// // A write is acknowledged as soon as it enters the write queue.
/// assert_eq!(mc.write(Time::ZERO), Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    tech: DramTech,
    /// `tech.line_transfer_time()`, fixed at construction.
    line_transfer: Duration,
    /// `tech.access_latency() + line_transfer`: an idle read's latency.
    read_latency: Duration,
    /// When the data bus frees up for the next line transfer.
    bus_free_at: Time,
    write_queue: WriteQueue,
    reads: u64,
    writes: u64,
}

impl MemoryController {
    /// Creates a controller for `tech` with a write queue of
    /// `write_queue_entries` 64 B entries.
    pub fn new(tech: DramTech, write_queue_entries: usize) -> Self {
        let line_transfer = tech.line_transfer_time();
        MemoryController {
            tech,
            line_transfer,
            read_latency: tech.access_latency() + line_transfer,
            bus_free_at: Time::ZERO,
            write_queue: WriteQueue::new(write_queue_entries, line_transfer),
            reads: 0,
            writes: 0,
        }
    }

    /// The DRAM technology behind this channel.
    pub fn tech(&self) -> DramTech {
        self.tech
    }

    /// Issues a 64 B read at `now`; returns the data-return time.
    pub fn read(&mut self, now: Time) -> Time {
        self.reads += 1;
        let start = self.bus_free_at.max(now);
        self.bus_free_at = start + self.line_transfer;
        start + self.read_latency
    }

    /// Issues a 64 B write at `now`; returns the time the write is accepted
    /// (enters the write queue) — the producer-visible completion.
    pub fn write(&mut self, now: Time) -> Time {
        self.writes += 1;
        self.write_queue.push(now)
    }

    /// Time by which all queued writes will be durable in DRAM.
    pub fn writes_drained_at(&self) -> Time {
        self.write_queue.drained_at()
    }

    /// (reads, writes) issued so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

/// A multi-channel memory system interleaving consecutive lines across
/// channels, as hardware stripes physical addresses.
///
/// # Examples
///
/// ```
/// use mem_subsys::dram::{DramTech, MemorySystem};
/// use mem_subsys::line::LineAddr;
/// use sim_core::time::Time;
///
/// // The paper's host socket: 8 × DDR5-4800, 32-entry write queues.
/// let mut mem = MemorySystem::new(DramTech::Ddr5_4800, 8, 32);
/// let done = mem.read(LineAddr::new(0), Time::ZERO);
/// assert!(done > Time::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    channels: Vec<MemoryController>,
}

impl MemorySystem {
    /// Creates `channels` controllers of `tech`, each with
    /// `write_queue_entries` write-queue slots.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(tech: DramTech, channels: usize, write_queue_entries: usize) -> Self {
        assert!(channels > 0, "memory system needs at least one channel");
        MemorySystem {
            channels: (0..channels)
                .map(|_| MemoryController::new(tech, write_queue_entries))
                .collect(),
        }
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The technology of the channels.
    pub fn tech(&self) -> DramTech {
        self.channels[0].tech()
    }

    /// Aggregate peak bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.tech().channel_bandwidth_gbps() * self.channels.len() as f64
    }

    fn channel_for(&self, addr: LineAddr) -> usize {
        (addr.index() % self.channels.len() as u64) as usize
    }

    /// The channel `addr` interleaves onto — consecutive lines stripe
    /// round-robin, so an access stride equal to the channel count pins
    /// every request to one channel (the contention worst case).
    pub fn channel_of(&self, addr: LineAddr) -> usize {
        self.channel_for(addr)
    }

    /// Reads the line at `addr`; returns data-return time.
    pub fn read(&mut self, addr: LineAddr, now: Time) -> Time {
        let ch = self.channel_for(addr);
        self.channels[ch].read(now)
    }

    /// Writes the line at `addr`; returns producer-visible completion time.
    pub fn write(&mut self, addr: LineAddr, now: Time) -> Time {
        let ch = self.channel_for(addr);
        self.channels[ch].write(now)
    }

    /// Total (reads, writes) across channels.
    pub fn op_counts(&self) -> (u64, u64) {
        self.channels.iter().fold((0, 0), |(r, w), c| {
            let (cr, cw) = c.op_counts();
            (r + cr, w + cw)
        })
    }

    /// Time by which every queued write in every channel is durable.
    pub fn writes_drained_at(&self) -> Time {
        self.channels
            .iter()
            .map(MemoryController::writes_drained_at)
            .max()
            .expect("at least one channel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::bandwidth_gbps;

    #[test]
    fn tech_envelopes_ordered_as_expected() {
        assert!(DramTech::Ddr4_2400.access_latency() > DramTech::Ddr5_4800.access_latency());
        assert!(
            DramTech::Ddr4_2400.channel_bandwidth_gbps()
                < DramTech::Ddr5_5200.channel_bandwidth_gbps()
        );
        // Table II: device channel bandwidth 19.2 GB/s.
        assert_eq!(DramTech::Ddr4_2400.channel_bandwidth_gbps(), 19.2);
        assert_eq!(DramTech::Ddr5_5200.channel_bandwidth_gbps(), 41.6);
    }

    #[test]
    fn read_latency_includes_access_and_transfer() {
        for tech in [
            DramTech::Ddr5_4800,
            DramTech::Ddr4_2400,
            DramTech::Ddr5_5200,
        ] {
            for now in [Time::ZERO, Time::from_nanos(1_000)] {
                let mut mc = MemoryController::new(tech, 32);
                let expect = tech.access_latency() + tech.line_transfer_time();
                assert_eq!(mc.read(now), now + expect, "{tech:?} at {now}");
            }
        }
    }

    #[test]
    fn back_to_back_reads_serialize_on_the_bus() {
        let mut mc = MemoryController::new(DramTech::Ddr4_2400, 32);
        let d1 = mc.read(Time::ZERO);
        let d2 = mc.read(Time::ZERO);
        assert_eq!(
            d2.duration_since(d1),
            DramTech::Ddr4_2400.line_transfer_time(),
            "pipelined reads are spaced by the line transfer time"
        );
    }

    #[test]
    fn sustained_read_bandwidth_approaches_peak() {
        let mut mc = MemoryController::new(DramTech::Ddr4_2400, 32);
        let n = 10_000u64;
        let mut last = Time::ZERO;
        for _ in 0..n {
            last = mc.read(Time::ZERO);
        }
        let bw = bandwidth_gbps(n * 64, last.duration_since(Time::ZERO));
        let peak = DramTech::Ddr4_2400.channel_bandwidth_gbps();
        assert!(
            bw > 0.95 * peak && bw <= peak + 1e-9,
            "bw {bw} vs peak {peak}"
        );
    }

    #[test]
    fn writes_absorbed_then_throttled() {
        let mut mc = MemoryController::new(DramTech::Ddr5_4800, 32);
        for _ in 0..32 {
            assert_eq!(mc.write(Time::ZERO), Time::ZERO);
        }
        assert!(mc.write(Time::ZERO) > Time::ZERO);
        assert_eq!(mc.op_counts().1, 33);
    }

    #[test]
    fn system_interleaves_across_channels() {
        let mut mem = MemorySystem::new(DramTech::Ddr5_4800, 8, 32);
        // 8 consecutive lines land on 8 distinct channels: all complete at
        // the single-read latency.
        let done: Vec<Time> = (0..8)
            .map(|i| mem.read(LineAddr::new(i), Time::ZERO))
            .collect();
        assert!(done.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(mem.op_counts(), (8, 0));
    }

    #[test]
    fn same_channel_lines_serialize() {
        let mut mem = MemorySystem::new(DramTech::Ddr5_4800, 8, 32);
        let d1 = mem.read(LineAddr::new(0), Time::ZERO);
        let d2 = mem.read(LineAddr::new(8), Time::ZERO);
        assert!(d2 > d1);
    }

    #[test]
    fn peak_bandwidth_reports_aggregate() {
        let mem = MemorySystem::new(DramTech::Ddr4_2400, 2, 32);
        assert!((mem.peak_bandwidth_gbps() - 38.4).abs() < 1e-9);
        assert_eq!(mem.channel_count(), 2);
    }

    #[test]
    fn channel_of_matches_interleave() {
        let mem = MemorySystem::new(DramTech::Ddr5_4800, 8, 32);
        for i in 0..32u64 {
            assert_eq!(mem.channel_of(LineAddr::new(i)), (i % 8) as usize);
        }
    }

    #[test]
    fn writes_drained_time_tracks_queue() {
        let mut mem = MemorySystem::new(DramTech::Ddr4_2400, 1, 4);
        for i in 0..4 {
            mem.write(LineAddr::new(i), Time::ZERO);
        }
        let drain = mem.writes_drained_at();
        let per = DramTech::Ddr4_2400.line_transfer_time();
        assert_eq!(drain, Time::ZERO + per * 4);
    }
}
