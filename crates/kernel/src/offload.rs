//! Offload backends for the zswap/ksm data-plane functions.
//!
//! §VI–§VII compare four execution strategies for the CPU- and
//! memory-intensive functions of zswap (compress/decompress) and ksm
//! (checksum/compare):
//!
//! * [`CpuBackend`] (`cpu-*`) — the host core runs the function inline;
//! * [`PcieBackend`] over a PCIe copy engine, in two presets:
//!   [`PcieBackend::bf3_rdma`] (`pcie-rdma-*`), the STYX approach, where
//!   kernel-space RDMA verbs move pages to the BF-3, whose Arm cores
//!   compute; and [`PcieBackend::agilex7_dma`] (`pcie-dma-*`), where DMA
//!   moves pages to the Agilex-7, whose FPGA IPs compute;
//! * [`CxlBackend`] (`cxl-*`) — the paper's contribution: cache-coherent
//!   ld/st mailboxes (Fig. 7), D2H NC-read page pulls, pipelined FPGA
//!   compute, NC-write into device-memory zpool, and NC-P result pushes.
//!
//! Each invocation reports the completion time, the **host CPU time**
//! consumed (the interference driver of Fig. 8), and the Table IV step
//! breakdown (② transfer-in, ④ compute, ⑤ transfer-out).

use accel::compare::{compare_pages, PageCompare};
use accel::ip::{pipeline_time, Engine, Function};
use accel::lz::CompressedPage;
use accel::xxhash::page_checksum;
use cxl_type2::addr::{device_line, host_line};
use cxl_type2::device::CxlDevice;
use cxl_type2::transfer::{d2h_push_bytes, d2h_read_bytes};
use host::socket::Socket;
use pcie::engine::{CompletionModel, CopyEngine};
use sim_core::time::{Duration, Time};
use sim_core::trace::{self, BackendId, OffloadFn, OffloadStep, TraceEvent};

/// Step-level latency breakdown of one offloaded invocation (Table IV).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// ① dispatch: communicating source/destination addresses.
    pub dispatch: Duration,
    /// ② page transfer to the compute engine.
    pub transfer_in: Duration,
    /// ④ the computation itself.
    pub compute: Duration,
    /// ⑤ result transfer back (compressed page to zpool / result to host).
    pub transfer_out: Duration,
    /// Observed wall-clock of ②④⑤ (pipelined where the backend pipelines).
    pub total: Duration,
}

/// Outcome of one offloaded function invocation.
#[derive(Debug, Clone)]
pub struct OffloadOutcome<T> {
    /// The function result.
    pub value: T,
    /// When the host observes completion.
    pub completion: Time,
    /// Host CPU time consumed (dispatch, interrupts, polling — the
    /// interference with co-running applications).
    pub host_cpu: Duration,
    /// Step breakdown.
    pub breakdown: Breakdown,
}

/// A backend executing the offloadable data-plane functions.
pub trait OffloadBackend {
    /// Short identifier (`cpu`, `pcie-rdma`, `pcie-dma`, `cxl`).
    fn name(&self) -> &'static str;

    /// The compute engine the functions run on.
    fn engine(&self) -> Engine;

    /// True if the zpool lives in device memory (only the CXL backend can
    /// expose device memory to the host transparently, §VI-A).
    fn zpool_in_device_memory(&self) -> bool {
        false
    }

    /// Compresses a page.
    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage>;

    /// Decompresses a page from the zpool.
    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>>;

    /// Computes the ksm page checksum.
    fn checksum(&mut self, page: &[u8], now: Time, host: &mut Socket) -> OffloadOutcome<u32>;

    /// Byte-compares two pages.
    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<PageCompare>;
}

fn decompress_or_panic(cp: &CompressedPage) -> Vec<u8> {
    cp.decompress()
        .expect("zpool entries are produced by our own compressor")
}

/// The trace identity of an accelerated function.
fn offload_fn(f: Function) -> OffloadFn {
    match f {
        Function::Compress => OffloadFn::Compress,
        Function::Decompress => OffloadFn::Decompress,
        Function::Checksum => OffloadFn::Checksum,
        Function::Compare => OffloadFn::Compare,
    }
}

/// Emits the five-step offload lifecycle (Table IV's ①②④⑤ plus the
/// completion) derived from an invocation's [`Breakdown`].
fn emit_offload_steps(
    backend: BackendId,
    func: OffloadFn,
    bytes: u64,
    start: Time,
    b: &Breakdown,
    completion: Time,
) {
    if !trace::is_active() {
        return;
    }
    let t1 = start + b.dispatch;
    let t2 = t1 + b.transfer_in;
    let t3 = t2 + b.compute;
    trace::emit(
        start,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Dispatch,
            bytes,
        },
    );
    trace::emit(
        t1,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::TransferIn,
            bytes,
        },
    );
    trace::emit(
        t2,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Compute,
            bytes,
        },
    );
    trace::emit(
        t3,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::TransferOut,
            bytes,
        },
    );
    trace::emit(
        completion,
        TraceEvent::Offload {
            backend,
            func,
            step: OffloadStep::Complete,
            bytes,
        },
    );
}

// =====================================================================
// cpu-*: host-inline execution
// =====================================================================

/// The baseline: the host core runs the function inline, consuming host
/// CPU for the full duration and polluting the host cache.
#[derive(Debug, Clone, Default)]
pub struct CpuBackend;

impl CpuBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        CpuBackend
    }

    fn run<T>(&self, f: Function, bytes: u64, value: T, now: Time) -> OffloadOutcome<T> {
        let t = Engine::HostCpu.execution_time(f, bytes);
        let breakdown = Breakdown {
            compute: t,
            total: t,
            ..Breakdown::default()
        };
        emit_offload_steps(
            BackendId::Cpu,
            offload_fn(f),
            bytes,
            now,
            &breakdown,
            now + t,
        );
        OffloadOutcome {
            value,
            completion: now + t,
            host_cpu: t,
            breakdown,
        }
    }
}

impl OffloadBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn engine(&self) -> Engine {
        Engine::HostCpu
    }

    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        self.run(
            Function::Compress,
            page.len() as u64,
            CompressedPage::from_page(page),
            now,
        )
    }

    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        self.run(
            Function::Decompress,
            cp.original_len as u64,
            decompress_or_panic(cp),
            now,
        )
    }

    fn checksum(&mut self, page: &[u8], now: Time, _host: &mut Socket) -> OffloadOutcome<u32> {
        self.run(
            Function::Checksum,
            page.len() as u64,
            page_checksum(page),
            now,
        )
    }

    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        let r = compare_pages(a, b);
        // Early exit: only the examined prefix is touched.
        self.run(Function::Compare, r.bytes_examined(a.len()) as u64, r, now)
    }
}

// =====================================================================
// pcie-rdma-* and pcie-dma-*: offload over a PCIe copy engine
// =====================================================================

/// Offload to a PCIe card over its copy engine. Store-and-forward: the
/// engine moves the page(s) to the card, the card computes, and the
/// engine moves the result back, with no pipelining. The host pays the
/// work posting and the completion interrupt, or polling for the short
/// ksm functions.
#[derive(Debug, Clone)]
pub struct PcieBackend {
    /// Trace identity; its wire name is the backend's name.
    id: BackendId,
    /// The card's compute engine.
    compute: Engine,
    copy: CopyEngine,
    /// ① posting the work before the first transfer.
    dispatch: Duration,
    /// Software overhead after each transfer.
    per_transfer: Duration,
    /// Completion interrupt after the result lands.
    interrupt: Duration,
    /// Host CPU cost of an interrupt-completed page operation.
    interrupt_cpu: Duration,
    /// Host CPU cost of a polled short operation.
    polled_cpu: Duration,
}

impl PcieBackend {
    /// Kernel-space RDMA offload to the BF-3's Arm cores (STYX, the prior
    /// work the paper reimplements). Every transfer pays the kernel verbs
    /// stack (the ~1300-LoC kernel-space RDMA stack of §VII "coding
    /// complexity").
    pub fn bf3_rdma() -> Self {
        let verb_overhead = Duration::from_nanos(1_100);
        let post_cpu = Duration::from_nanos(350);
        let interrupt = Duration::from_nanos(900);
        PcieBackend {
            id: BackendId::PcieRdma,
            compute: Engine::ArmCore,
            copy: CopyEngine::bf3_rdma(),
            // The verb plus the doorbell write.
            dispatch: verb_overhead + Duration::from_nanos(200),
            per_transfer: verb_overhead,
            interrupt,
            interrupt_cpu: post_cpu + interrupt,
            // STYX polls completions for the fine-grained ksm functions.
            polled_cpu: post_cpu + Duration::from_nanos(120),
        }
    }

    /// DMA offload to the Agilex-7's FPGA IPs (the paper emulates this
    /// with the CXL card after matching PCIe-DMA transfer times, §VII).
    pub fn agilex7_dma() -> Self {
        let setup_cpu = Duration::from_nanos(450);
        let interrupt = Duration::from_nanos(900);
        PcieBackend {
            id: BackendId::PcieDma,
            compute: Engine::FpgaIp,
            copy: CopyEngine::agilex_mcdma(CompletionModel::Delivered),
            dispatch: Duration::from_nanos(350),
            per_transfer: Duration::ZERO,
            interrupt,
            // One descriptor per direction.
            interrupt_cpu: setup_cpu * 2 + interrupt,
            polled_cpu: setup_cpu + Duration::from_nanos(150),
        }
    }

    fn run<T>(
        &mut self,
        f: Function,
        in_bytes: u64,
        out_bytes: u64,
        value: T,
        now: Time,
        host_cpu: Duration,
    ) -> OffloadOutcome<T> {
        // ① post the work and ring the doorbell.
        let t0 = now + self.dispatch;
        // ② the engine moves the page(s) to the card.
        let t_in_done = self.copy.transfer(t0, in_bytes) + self.per_transfer;
        // ④ the card computes.
        let compute = self.compute.execution_time(f, in_bytes);
        let t_compute_done = t_in_done + compute;
        // ⑤ the engine moves the result back to host memory + interrupt.
        let t_out_done =
            self.copy.transfer(t_compute_done, out_bytes) + self.per_transfer + self.interrupt;
        let breakdown = Breakdown {
            dispatch: self.dispatch,
            transfer_in: t_in_done.duration_since(t0),
            compute,
            transfer_out: t_out_done.duration_since(t_compute_done),
            total: t_out_done.duration_since(t0),
        };
        emit_offload_steps(
            self.id,
            offload_fn(f),
            in_bytes,
            now,
            &breakdown,
            t_out_done,
        );
        OffloadOutcome {
            value,
            completion: t_out_done,
            host_cpu,
            breakdown,
        }
    }
}

impl OffloadBackend for PcieBackend {
    fn name(&self) -> &'static str {
        self.id.as_str()
    }

    fn engine(&self) -> Engine {
        self.compute
    }

    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        let cp = CompressedPage::from_page(page);
        let out = cp.compressed_len() as u64;
        let cost = self.interrupt_cpu;
        self.run(Function::Compress, page.len() as u64, out, cp, now, cost)
    }

    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        let page = decompress_or_panic(cp);
        self.run(
            Function::Decompress,
            cp.compressed_len() as u64,
            cp.original_len as u64,
            page,
            now,
            self.interrupt_cpu,
        )
    }

    fn checksum(&mut self, page: &[u8], now: Time, _host: &mut Socket) -> OffloadOutcome<u32> {
        self.run(
            Function::Checksum,
            page.len() as u64,
            8,
            page_checksum(page),
            now,
            self.polled_cpu,
        )
    }

    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        _host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        let r = compare_pages(a, b);
        let cost = self.polled_cpu;
        // Both pages must be transferred.
        self.run(Function::Compare, 2 * a.len() as u64, 8, r, now, cost)
    }
}

// =====================================================================
// cxl-*: the paper's CXL Type-2 offload (Fig. 7)
// =====================================================================

/// The CXL Type-2 offload: ld/st mailbox in device memory, D2H NC-read
/// page pulls, streaming FPGA compute pipelined with the transfers, and
/// zpool storage in device memory.
#[derive(Debug)]
pub struct CxlBackend {
    /// The device executing the offload.
    pub dev: CxlDevice,
    /// Host CPU cost of the nt-st mailbox write (①).
    mailbox_cpu: Duration,
    /// Host CPU cost of waking and resuming kswapd after completion.
    wakeup_cpu: Duration,
    /// Device polling-detection delay (CS-read loop on the mailbox).
    poll_detect: Duration,
    /// Bump allocators for modeled page addresses.
    next_host_line: u64,
    next_dev_line: u64,
}

impl CxlBackend {
    /// Creates the backend around a fresh Agilex-7 Type-2 device.
    pub fn agilex7() -> Self {
        CxlBackend::with_device(CxlDevice::agilex7())
    }

    /// Creates the backend around an existing device.
    pub fn with_device(dev: CxlDevice) -> Self {
        CxlBackend {
            dev,
            mailbox_cpu: Duration::from_nanos(80),
            wakeup_cpu: Duration::from_nanos(150),
            poll_detect: Duration::from_nanos(150),
            next_host_line: 1 << 20,
            next_dev_line: 1 << 20,
        }
    }

    fn alloc_host_lines(&mut self, lines: u64) -> mem_subsys::line::LineAddr {
        let a = host_line(self.next_host_line);
        self.next_host_line += lines;
        a
    }

    fn alloc_dev_lines(&mut self, lines: u64) -> mem_subsys::line::LineAddr {
        let a = device_line(self.next_dev_line);
        self.next_dev_line += lines;
        a
    }

    /// ① kswapd nt-st's the source/destination addresses into the shared
    /// device-memory mailbox; the device polls with D2D CS-reads. The
    /// stores are posted, so the host CPU pays only the issue cost, not
    /// the link traversal.
    fn dispatch(&mut self, now: Time, host: &mut Socket) -> (Time, Duration) {
        let mailbox = device_line(0);
        let t = self.dev.h2d_nt_store(mailbox, now, host).completion;
        let t = self.dev.h2d_nt_store(mailbox.offset(1), t, host).completion;
        let host_cpu = (host.timing.issue + host.timing.core_issue_interval) * 2;
        (t + self.poll_detect, host_cpu)
    }

    /// Measures ② as a D2H NC-read pull of `bytes` from host memory.
    fn pull_from_host(&mut self, bytes: u64, now: Time, host: &mut Socket) -> Duration {
        let base = self.alloc_host_lines(bytes.div_ceil(64).max(1));
        d2h_read_bytes(&mut self.dev, host, base, bytes, now).duration_since(now)
    }

    /// Measures a D2D transfer of `bytes` (zpool reads/writes).
    fn d2d_bytes(&mut self, bytes: u64, write: bool, now: Time, host: &mut Socket) -> Duration {
        use cxl_proto::request::RequestType;
        use host::burst::burst_end;
        let lines = bytes.div_ceil(64).max(1);
        let base = self.alloc_dev_lines(lines);
        let req = if write {
            RequestType::NC_WR
        } else {
            RequestType::CS_RD
        };
        let port = self.dev.lsu_port();
        burst_end(lines as usize, port, now, |i, t| {
            self.dev.d2d(req, base.offset(i as u64), t, host).completion
        })
        .duration_since(now)
    }

    /// Measures ⑤ for decompression: NC-P push of `bytes` into host LLC.
    fn push_to_host(&mut self, bytes: u64, now: Time, host: &mut Socket) -> Duration {
        let base = self.alloc_host_lines(bytes.div_ceil(64).max(1));
        d2h_push_bytes(&mut self.dev, host, base, bytes, now).duration_since(now)
    }

    #[allow(clippy::too_many_arguments)]
    fn finish<T>(
        &mut self,
        value: T,
        start: Time,
        dispatch_done: Time,
        dispatch_cpu: Duration,
        stages: [Duration; 3],
        pipelined: bool,
        func: OffloadFn,
        bytes: u64,
    ) -> OffloadOutcome<T> {
        let [transfer_in, compute, transfer_out] = stages;
        let total = if pipelined {
            // The IPs stream in coarser chunks than single cache lines
            // (buffer turnaround), so pipelining overlap is partial.
            pipeline_time(&stages, 16)
        } else {
            transfer_in + compute + transfer_out
        };
        let completion = dispatch_done + total;
        let breakdown = Breakdown {
            dispatch: dispatch_done.duration_since(start),
            transfer_in,
            compute,
            transfer_out,
            total,
        };
        emit_offload_steps(BackendId::Cxl, func, bytes, start, &breakdown, completion);
        OffloadOutcome {
            value,
            completion,
            host_cpu: dispatch_cpu + self.mailbox_cpu + self.wakeup_cpu,
            breakdown,
        }
    }
}

impl OffloadBackend for CxlBackend {
    fn name(&self) -> &'static str {
        "cxl"
    }

    fn engine(&self) -> Engine {
        Engine::FpgaIp
    }

    fn zpool_in_device_memory(&self) -> bool {
        true
    }

    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        let cp = CompressedPage::from_page(page);
        let (t0, dcpu) = self.dispatch(now, host);
        // ② D2H NC-read of the page (lowest-latency D2H read for 4 KiB).
        let t_in = self.pull_from_host(page.len() as u64, t0, host);
        // ④ streaming FPGA compression.
        let t_compute = Engine::FpgaIp.execution_time(Function::Compress, page.len() as u64);
        // ⑤ D2D NC-write of the compressed page into the device-memory
        // zpool + result size back to the mailbox.
        let t_out = self.d2d_bytes(cp.compressed_len() as u64 + 64, true, t0, host);
        let bytes = page.len() as u64;
        self.finish(
            cp,
            now,
            t0,
            dcpu,
            [t_in, t_compute, t_out],
            true,
            OffloadFn::Compress,
            bytes,
        )
    }

    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        let page = decompress_or_panic(cp);
        let (t0, dcpu) = self.dispatch(now, host);
        // ② D2D CS-read of the compressed page from zpool.
        let t_in = self.d2d_bytes(cp.compressed_len() as u64, false, t0, host);
        // ④ streaming decompression.
        let t_compute = Engine::FpgaIp.execution_time(Function::Decompress, cp.original_len as u64);
        // ⑤ NC-P the decompressed page into host LLC (Insight 4).
        let t_out = self.push_to_host(cp.original_len as u64, t0, host);
        let bytes = cp.compressed_len() as u64;
        self.finish(
            page,
            now,
            t0,
            dcpu,
            [t_in, t_compute, t_out],
            true,
            OffloadFn::Decompress,
            bytes,
        )
    }

    fn checksum(&mut self, page: &[u8], now: Time, host: &mut Socket) -> OffloadOutcome<u32> {
        let v = page_checksum(page);
        let (t0, dcpu) = self.dispatch(now, host);
        let t_in = self.pull_from_host(page.len() as u64, t0, host);
        let t_compute = Engine::FpgaIp.execution_time(Function::Checksum, page.len() as u64);
        // Checksum needs the whole page before it finishes, so ② and ④ do
        // not pipeline (§VI-B); the 64 B result NC-Ps back.
        let t_out = self.push_to_host(8, t0, host);
        let bytes = page.len() as u64;
        self.finish(
            v,
            now,
            t0,
            dcpu,
            [t_in, t_compute, t_out],
            false,
            OffloadFn::Checksum,
            bytes,
        )
    }

    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        let r = compare_pages(a, b);
        let (t0, dcpu) = self.dispatch(now, host);
        // Early exit: only the examined prefixes transfer and compare.
        let examined = r.bytes_examined(a.len()) as u64;
        let t_in = self.pull_from_host(2 * examined, t0, host);
        let t_compute = Engine::FpgaIp.execution_time(Function::Compare, examined);
        let t_out = self.push_to_host(8, t0, host);
        // §VI-B: the comparison pipelines with the transfer.
        let mut out = self.finish(
            r,
            now,
            t0,
            dcpu,
            [t_in, t_compute, t_out],
            true,
            OffloadFn::Compare,
            examined,
        );
        // Tree-walk comparisons chain device-side off one mailbox write;
        // the host is not woken per node.
        out.host_cpu = Duration::from_nanos(100);
        out
    }
}

impl OffloadBackend for Box<dyn OffloadBackend> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn engine(&self) -> Engine {
        (**self).engine()
    }

    fn zpool_in_device_memory(&self) -> bool {
        (**self).zpool_in_device_memory()
    }

    fn compress(
        &mut self,
        page: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<CompressedPage> {
        (**self).compress(page, now, host)
    }

    fn decompress(
        &mut self,
        cp: &CompressedPage,
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<Vec<u8>> {
        (**self).decompress(cp, now, host)
    }

    fn checksum(&mut self, page: &[u8], now: Time, host: &mut Socket) -> OffloadOutcome<u32> {
        (**self).checksum(page, now, host)
    }

    fn compare(
        &mut self,
        a: &[u8],
        b: &[u8],
        now: Time,
        host: &mut Socket,
    ) -> OffloadOutcome<PageCompare> {
        (**self).compare(a, b, now, host)
    }
}
