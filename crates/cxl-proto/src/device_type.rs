//! CXL device-type taxonomy (the paper's Table I).

use core::fmt;

/// One of the three CXL sub-protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// PCIe-based initialization/configuration transport.
    Io,
    /// Device-initiated cache-coherent access to host memory.
    Cache,
    /// Host-initiated access to device-attached memory.
    Mem,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Io => "CXL.io",
            Protocol::Cache => "CXL.cache",
            Protocol::Mem => "CXL.mem",
        };
        f.write_str(s)
    }
}

/// A CXL device type, defined by its protocol composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceType {
    /// CXL.io + CXL.cache: coherent device cache, no host-visible device
    /// memory (SmartNICs).
    Type1,
    /// CXL.io + CXL.cache + CXL.mem: coherent D2H, D2D, and H2D
    /// (accelerators with local memory) — the subject of the paper.
    Type2,
    /// CXL.io + CXL.mem: memory expanders, optionally with non-coherent
    /// near-memory accelerators.
    Type3,
}

impl DeviceType {
    /// All three device types in Table I order.
    pub const ALL: [DeviceType; 3] = [DeviceType::Type1, DeviceType::Type2, DeviceType::Type3];

    /// The protocols the device type must implement.
    pub fn protocols(self) -> &'static [Protocol] {
        match self {
            DeviceType::Type1 => &[Protocol::Io, Protocol::Cache],
            DeviceType::Type2 => &[Protocol::Io, Protocol::Cache, Protocol::Mem],
            DeviceType::Type3 => &[Protocol::Io, Protocol::Mem],
        }
    }

    /// Table I's operations summary for the device type.
    pub fn description(self) -> &'static str {
        match self {
            DeviceType::Type1 => "Coherent D2H accesses",
            DeviceType::Type2 => "Coherent D2H, D2D, and H2D accesses",
            DeviceType::Type3 => "Faster H2D and D2D accesses",
        }
    }

    /// Table I's primary application for the device type.
    pub fn primary_application(self) -> &'static str {
        match self {
            DeviceType::Type1 => "ACCs, SNICs with coherent cache but no local memory",
            DeviceType::Type2 => "ACCs with local memory and optional coherent cache",
            DeviceType::Type3 => {
                "Memory expanders and ACCs with non-coherent access to device memory"
            }
        }
    }
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceType::Type1 => "Type 1",
            DeviceType::Type2 => "Type 2",
            DeviceType::Type3 => "Type 3",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_protocol_composition() {
        assert_eq!(
            DeviceType::Type1.protocols(),
            &[Protocol::Io, Protocol::Cache]
        );
        assert_eq!(
            DeviceType::Type2.protocols(),
            &[Protocol::Io, Protocol::Cache, Protocol::Mem]
        );
        assert_eq!(
            DeviceType::Type3.protocols(),
            &[Protocol::Io, Protocol::Mem]
        );
    }

    #[test]
    fn type2_is_the_superset() {
        for t in DeviceType::ALL {
            for p in t.protocols() {
                assert!(DeviceType::Type2.protocols().contains(p));
            }
        }
    }

    #[test]
    fn display_and_descriptions_nonempty() {
        for t in DeviceType::ALL {
            assert!(!t.to_string().is_empty());
            assert!(!t.description().is_empty());
            assert!(!t.primary_application().is_empty());
        }
        assert_eq!(Protocol::Cache.to_string(), "CXL.cache");
    }
}
