//! Memory system configuration, with the paper's parameters as defaults.

use crate::cache::CacheConfig;
use crate::dram::DramConfig;
use serde::{Deserialize, Serialize};

/// Which cache-hierarchy organization to model (§5.4, figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HierarchyKind {
    /// Perfect memory: every access hits in one cycle, no contention
    /// (§5.2's "idealistic memory system").
    Ideal,
    /// Conventional: 4 general-purpose memory ports into the banked L1;
    /// vector (stream) accesses share them with scalar accesses.
    Conventional,
    /// Decoupled: 2 scalar ports into L1 (single-banked, double-pumped as
    /// in the Alpha 21264) plus 2 vector ports connected directly to the
    /// 2-banked L2 through a crossbar; exclusive-bit coherence keeps the
    /// levels consistent.
    Decoupled,
}

impl HierarchyKind {
    /// All hierarchy kinds, in figure-9 presentation order.
    pub const ALL: [HierarchyKind; 3] = [
        HierarchyKind::Ideal,
        HierarchyKind::Conventional,
        HierarchyKind::Decoupled,
    ];

    /// Label used in experiment output.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            HierarchyKind::Ideal => "ideal",
            HierarchyKind::Conventional => "conventional",
            HierarchyKind::Decoupled => "decoupled",
        }
    }
}

impl core::fmt::Display for HierarchyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Hierarchy organization.
    pub hierarchy: HierarchyKind,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L2 unified cache geometry.
    pub l2: CacheConfig,
    /// L1 data latency in cycles.
    pub l1_latency: u64,
    /// L2 latency in cycles.
    pub l2_latency: u64,
    /// Number of data MSHRs (outstanding L1 misses).
    pub mshrs: usize,
    /// Coalescing write-buffer depth.
    pub write_buffer_depth: usize,
    /// Number of L1 data ports in the conventional organization.
    pub general_ports: usize,
    /// Number of scalar L1 ports in the decoupled organization.
    pub scalar_ports: usize,
    /// Number of vector L2 ports in the decoupled organization.
    pub vector_ports: usize,
    /// Extra cycles when a decoupled vector access must invalidate an L1
    /// copy (exclusive-bit coherence probe).
    pub coherence_probe_penalty: u64,
    /// DRDRAM parameters.
    pub dram: DramConfig,
}

impl MemConfig {
    /// The paper's memory system (§3 "Architectural Parameters").
    #[must_use]
    pub fn paper() -> Self {
        MemConfig {
            hierarchy: HierarchyKind::Conventional,
            // 32 KB, direct mapped, write-through, 32-byte lines, 8 banks
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 1,
                line_bytes: 32,
                banks: 8,
                write_back: false,
            },
            // 64 KB, 2-way, 32-byte lines, 4 banks
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 32,
                banks: 4,
                write_back: false,
            },
            // 1 MB, 2-way, write-back, 128-byte lines, 2 banks
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 2,
                line_bytes: 128,
                banks: 2,
                write_back: true,
            },
            l1_latency: 1,
            l2_latency: 12,
            mshrs: 8,
            write_buffer_depth: 8,
            general_ports: 4,
            scalar_ports: 2,
            vector_ports: 2,
            coherence_probe_penalty: 2,
            dram: DramConfig::paper(),
        }
    }

    /// The paper's memory system with the given hierarchy organization.
    #[must_use]
    pub fn paper_with(hierarchy: HierarchyKind) -> Self {
        MemConfig {
            hierarchy,
            ..MemConfig::paper()
        }
    }

    /// An ideal (perfect) memory system.
    #[must_use]
    pub fn ideal() -> Self {
        MemConfig::paper_with(HierarchyKind::Ideal)
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section3() {
        let c = MemConfig::paper();
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.ways, 1, "L1 is direct mapped");
        assert!(!c.l1d.write_back, "L1 is write-through");
        assert_eq!(c.l1d.line_bytes, 32);
        assert_eq!(c.l1d.banks, 8);
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l1i.ways, 2);
        assert_eq!(c.l1i.banks, 4);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.ways, 2);
        assert!(c.l2.write_back);
        assert_eq!(c.l2.line_bytes, 128);
        assert_eq!(c.l1_latency, 1);
        assert_eq!(c.l2_latency, 12);
        assert_eq!(c.mshrs, 8);
        assert_eq!(c.write_buffer_depth, 8);
        assert_eq!(c.general_ports, 4);
        assert_eq!(c.scalar_ports + c.vector_ports, 4);
    }

    #[test]
    fn hierarchy_labels() {
        assert_eq!(HierarchyKind::Ideal.label(), "ideal");
        assert_eq!(HierarchyKind::Decoupled.to_string(), "decoupled");
        assert_eq!(HierarchyKind::ALL.len(), 3);
    }
}
