//! Host hardware specification.

use serde::{Deserialize, Serialize};

/// Hardware description of one cluster host.
///
/// The paper's testbed hosts have "128 GB RAM and six 3.5 GHz dual
/// hyper-threaded CPU cores" — i.e. 12 hardware threads — and one 10 Gbps
/// NIC (the NIC lives in the network topology, not here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Effective parallel compute capacity in cores (hardware threads).
    pub cores: f64,
    /// Memory in GiB (descriptive: the simulator does not model memory).
    pub ram_gib: f64,
}

impl HostSpec {
    /// The paper's testbed host: 6 dual-hyper-threaded cores, 128 GB RAM.
    pub fn paper_testbed() -> Self {
        HostSpec {
            cores: 12.0,
            ram_gib: 128.0,
        }
    }

    /// A host with the given core count and the testbed's RAM.
    pub fn with_cores(cores: f64) -> Self {
        assert!(cores > 0.0, "host needs positive core count");
        HostSpec {
            cores,
            ram_gib: 128.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let h = HostSpec::paper_testbed();
        assert_eq!(h.cores, 12.0);
        assert_eq!(h.ram_gib, 128.0);
    }

    #[test]
    #[should_panic(expected = "positive core count")]
    fn rejects_zero_cores() {
        let _ = HostSpec::with_cores(0.0);
    }
}
