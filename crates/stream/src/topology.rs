//! Machine-topology detection and core pinning.
//!
//! [`CpuTopology`] records which CPUs the machine has and which NUMA node
//! each one belongs to, parsed from `/sys/devices/system` on Linux with a
//! portable single-node fallback everywhere else. A pinned runtime fills it
//! CPU by CPU, node by node ([`CpuTopology::slot`]), so a pool no larger
//! than one node stays on that node.
//!
//! Pinning itself is a best-effort `sched_setaffinity` call (declared
//! directly against the C library so no external crate is required); on
//! non-Linux targets or when the call is refused, threads simply keep
//! floating.

use std::path::Path;

/// The CPUs of one NUMA node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCpus {
    /// Kernel node id (the `N` of `/sys/devices/system/node/nodeN`).
    pub node: usize,
    /// Online CPUs belonging to this node, ascending.
    pub cpus: Vec<usize>,
}

/// The machine's CPU/NUMA layout as seen by the runtime.
///
/// Nodes are stored densely in kernel-id order, so a machine whose online
/// nodes are `{0, 2}` still yields `nodes()[0]` and `nodes()[1]` here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuTopology {
    nodes: Vec<NodeCpus>,
}

impl CpuTopology {
    /// Detects the topology of the running machine: on Linux, parses
    /// `/sys/devices/system`; anywhere else (or when the parse yields
    /// nothing usable) falls back to a single node holding
    /// `available_parallelism` CPUs.
    pub fn detect() -> Self {
        Self::from_sysfs(Path::new("/sys/devices/system")).unwrap_or_else(|| {
            Self::single_node(
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1),
            )
        })
    }

    /// A single-node topology over CPUs `0..cpus` (the portable fallback).
    pub fn single_node(cpus: usize) -> Self {
        Self {
            nodes: vec![NodeCpus {
                node: 0,
                cpus: (0..cpus.max(1)).collect(),
            }],
        }
    }

    /// Builds a topology from an explicit node → CPU assignment (tests and
    /// synthetic layouts). Empty nodes are dropped; returns the single-node
    /// fallback over one CPU if nothing remains.
    pub fn from_nodes(nodes: Vec<NodeCpus>) -> Self {
        let nodes: Vec<NodeCpus> = nodes.into_iter().filter(|n| !n.cpus.is_empty()).collect();
        if nodes.is_empty() {
            return Self::single_node(1);
        }
        Self { nodes }
    }

    /// Parses a sysfs tree laid out like `/sys/devices/system`: node CPU
    /// lists from `node/node<N>/cpulist`, intersected with
    /// `cpu/online` so offline CPUs never enter a placement plan. Returns
    /// `None` when the tree is absent or yields no online CPU (callers fall
    /// back to [`CpuTopology::single_node`]).
    pub fn from_sysfs(root: &Path) -> Option<Self> {
        let online: Option<Vec<usize>> = std::fs::read_to_string(root.join("cpu/online"))
            .ok()
            .and_then(|s| parse_cpu_list(s.trim()));
        let node_dir = root.join("node");
        let mut nodes = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&node_dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(id) = name
                    .strip_prefix("node")
                    .and_then(|n| n.parse::<usize>().ok())
                else {
                    continue;
                };
                let Ok(list) = std::fs::read_to_string(entry.path().join("cpulist")) else {
                    continue;
                };
                let Some(mut cpus) = parse_cpu_list(list.trim()) else {
                    continue;
                };
                if let Some(online) = &online {
                    cpus.retain(|c| online.contains(c));
                }
                if !cpus.is_empty() {
                    nodes.push(NodeCpus { node: id, cpus });
                }
            }
        }
        if nodes.is_empty() {
            // No node directory (kernels without CONFIG_NUMA): treat every
            // online CPU as one node.
            let cpus = online?;
            if cpus.is_empty() {
                return None;
            }
            return Some(Self {
                nodes: vec![NodeCpus { node: 0, cpus }],
            });
        }
        nodes.sort_by_key(|n| n.node);
        Some(Self { nodes })
    }

    /// Number of NUMA nodes with at least one online CPU.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of online CPUs across all nodes.
    pub fn num_cpus(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus.len()).sum()
    }

    /// The per-node CPU lists, dense and in kernel-id order.
    pub fn nodes(&self) -> &[NodeCpus] {
        &self.nodes
    }

    /// The CPU the `i`-th thread of a pool is pinned to: threads fill the
    /// machine CPU by CPU (node by node, so a pool no larger than one node
    /// stays on that node) and wrap around when the pool outgrows the
    /// machine.
    pub fn slot(&self, i: usize) -> usize {
        let total = self.num_cpus().max(1);
        let mut k = i % total;
        for node in &self.nodes {
            if k < node.cpus.len() {
                return node.cpus[k];
            }
            k -= node.cpus.len();
        }
        // self.nodes is never empty by construction
        0
    }
}

impl Default for CpuTopology {
    fn default() -> Self {
        Self::detect()
    }
}

/// Parses a kernel CPU list (`"0-3,8,10-11"`) into an ascending vector.
/// Returns `None` on any malformed component or an empty list.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    if list.is_empty() {
        return None;
    }
    for part in list.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once('-') {
            let lo: usize = lo.trim().parse().ok()?;
            let hi: usize = hi.trim().parse().ok()?;
            if hi < lo {
                return None;
            }
            cpus.extend(lo..=hi);
        } else {
            cpus.push(part.parse().ok()?);
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

/// Highest CPU id a pin mask can express (the fixed `cpu_set_t` width).
const MAX_PIN_CPU: usize = 1024;

/// Pins the calling thread to one CPU via `sched_setaffinity`. Best-effort:
/// returns `false` on non-Linux targets, for CPU ids beyond the fixed mask
/// width, or when the kernel refuses (e.g. a restricted cpuset).
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MAX_PIN_CPU {
        return false;
    }
    #[cfg(target_os = "linux")]
    {
        // Declared directly against libc (which every Linux Rust binary
        // already links) so the vendored workspace needs no libc crate.
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        }
        let mut mask = [0u8; MAX_PIN_CPU / 8];
        mask[cpu / 8] |= 1 << (cpu % 8);
        // pid 0 targets the calling thread
        // SAFETY: plain FFI call with no pointer retention — the kernel
        // copies `cpusetsize` bytes out of `mask` before returning, and
        // `mask` is a live stack array of exactly that length.
        unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Builds a canned `/sys/devices/system`-shaped tree under the system
    /// temp directory; removed on drop.
    struct CannedSys {
        root: PathBuf,
    }

    impl CannedSys {
        fn new(online: Option<&str>, nodes: &[(usize, &str)]) -> Self {
            static UNIQUE: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "ps2stream-topo-{}-{}",
                std::process::id(),
                UNIQUE.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(root.join("cpu")).unwrap();
            if let Some(online) = online {
                fs::write(root.join("cpu/online"), online).unwrap();
            }
            for (id, cpulist) in nodes {
                let dir = root.join(format!("node/node{id}"));
                fs::create_dir_all(&dir).unwrap();
                fs::write(dir.join("cpulist"), cpulist).unwrap();
            }
            Self { root }
        }
    }

    impl Drop for CannedSys {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn parses_cpu_lists() {
        assert_eq!(parse_cpu_list("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpu_list("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list("5"), Some(vec![5]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
        // duplicates collapse
        assert_eq!(parse_cpu_list("1,1,0-1"), Some(vec![0, 1]));
    }

    #[test]
    fn single_node_tree_parses() {
        let sys = CannedSys::new(Some("0-3"), &[(0, "0-3")]);
        let topo = CpuTopology::from_sysfs(&sys.root).unwrap();
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.num_cpus(), 4);
        assert_eq!(topo.nodes()[0].cpus, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dual_socket_tree_parses_in_node_order() {
        // node directories read in arbitrary order must still come out
        // sorted by kernel id
        let sys = CannedSys::new(Some("0-7"), &[(1, "4-7"), (0, "0-3")]);
        let topo = CpuTopology::from_sysfs(&sys.root).unwrap();
        assert_eq!(topo.num_nodes(), 2);
        assert_eq!(topo.nodes()[0].node, 0);
        assert_eq!(topo.nodes()[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(topo.nodes()[1].node, 1);
        assert_eq!(topo.nodes()[1].cpus, vec![4, 5, 6, 7]);
    }

    #[test]
    fn offline_cpu_holes_are_dropped() {
        // CPUs 2 and 5 offline: they appear in the node lists but not in
        // cpu/online, and must not enter the topology
        let sys = CannedSys::new(Some("0-1,3-4,6-7"), &[(0, "0-3"), (1, "4-7")]);
        let topo = CpuTopology::from_sysfs(&sys.root).unwrap();
        assert_eq!(topo.nodes()[0].cpus, vec![0, 1, 3]);
        assert_eq!(topo.nodes()[1].cpus, vec![4, 6, 7]);
        assert_eq!(topo.num_cpus(), 6);
    }

    #[test]
    fn fully_offline_node_disappears() {
        let sys = CannedSys::new(Some("0-3"), &[(0, "0-3"), (1, "4-7")]);
        let topo = CpuTopology::from_sysfs(&sys.root).unwrap();
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.num_cpus(), 4);
    }

    #[test]
    fn numa_less_tree_falls_back_to_online_list() {
        let sys = CannedSys::new(Some("0-1"), &[]);
        let topo = CpuTopology::from_sysfs(&sys.root).unwrap();
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.nodes()[0].cpus, vec![0, 1]);
    }

    #[test]
    fn absent_tree_yields_none_and_detect_falls_back() {
        let missing = std::env::temp_dir().join("ps2stream-topo-definitely-missing");
        assert!(CpuTopology::from_sysfs(&missing).is_none());
        // detect never panics and always yields at least one CPU on one node
        let topo = CpuTopology::detect();
        assert!(topo.num_nodes() >= 1);
        assert!(topo.num_cpus() >= 1);
    }

    #[test]
    fn slots_fill_node_by_node_and_wrap() {
        let topo = CpuTopology::from_nodes(vec![
            NodeCpus {
                node: 0,
                cpus: vec![0, 1],
            },
            NodeCpus {
                node: 1,
                cpus: vec![4, 5],
            },
        ]);
        let slots: Vec<usize> = (0..5).map(|i| topo.slot(i)).collect();
        // node 0's CPUs first, then node 1's, then wrap-around
        assert_eq!(slots, vec![0, 1, 4, 5, 0]);
    }

    #[test]
    fn from_nodes_drops_empty_nodes() {
        let topo = CpuTopology::from_nodes(vec![
            NodeCpus {
                node: 0,
                cpus: vec![],
            },
            NodeCpus {
                node: 3,
                cpus: vec![9],
            },
        ]);
        assert_eq!(topo.num_nodes(), 1);
        assert_eq!(topo.slot(0), 9);
        // all-empty input degrades to the single-CPU fallback
        assert_eq!(CpuTopology::from_nodes(Vec::new()).num_cpus(), 1);
    }

    #[test]
    fn pinning_on_this_machine_is_best_effort() {
        // CPU 0 exists everywhere Linux runs; on other targets this is false.
        let ok = pin_current_thread(0);
        if cfg!(target_os = "linux") {
            assert!(ok, "pinning to CPU 0 should succeed on Linux");
        } else {
            assert!(!ok);
        }
        assert!(!pin_current_thread(usize::MAX));
        // restore a permissive mask so later tests are unaffected
        #[cfg(target_os = "linux")]
        restore_full_affinity();
    }

    #[cfg(target_os = "linux")]
    fn restore_full_affinity() {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        }
        let mask = [0xffu8; MAX_PIN_CPU / 8];
        // SAFETY: same contract as `pin_current_thread` — the kernel reads
        // `mask.len()` bytes from the live stack array and keeps nothing.
        unsafe {
            let _ = sched_setaffinity(0, mask.len(), mask.as_ptr());
        }
    }
}
