//! The object-safe topology abstraction the synthesis loop runs on.
//!
//! The paper's contribution is a *methodology* — sizing and layout
//! coupled in a loop — not a folded-cascode program. This module is the
//! contract that keeps the loop topology-generic: a [`Topology`] is an
//! amplifier the measurement pipeline can characterise that also tells
//! the layout planner how its devices group into matched stacks, how
//! they place into rows, and what currents its nets carry; a
//! [`TopologyPlan`] is the knowledge-based sizing procedure that
//! produces one. The flow (`losac-core`), the layout planner and the
//! batch engine (`losac-engine`) all speak these two traits; adding a
//! topology is a data-only addition against them.
//!
//! The layout description ([`TopologyLayoutSpec`]) is deliberately plain
//! data — names, nets, polarities, row indices — so `losac-sizing` does
//! not depend on the layout crate. `losac-core` translates it into an
//! executable `LayoutPlan` (fold policies, finger widths, slicing tree).

use crate::eval::{FnvHasher, InputDrive};
use crate::feedback::ParasiticMode;
use crate::ota::folded_cascode::{SizedDevice, SizingError};
use crate::specs::OtaSpecs;
use losac_sim::netlist::Circuit;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One member of a matched group: a device plus the nets that differ
/// between the group's members (drain and gate; source and bulk are
/// shared by the group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDevice {
    /// Device name (must exist in [`Topology::devices`]).
    pub name: String,
    /// Drain net.
    pub drain_net: String,
    /// Gate net.
    pub gate_net: String,
}

/// A set of devices that share a source net and must be laid out as one
/// interdigitated / common-centroid stack (input pair, mirror, matched
/// sinks). All members are sized identically by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchedGroup {
    /// Stack name in the layout plan (`"pair"`, `"mirror"`, …).
    pub name: String,
    /// Polarity of every member.
    pub polarity: Polarity,
    /// The shared source net.
    pub source_net: String,
    /// The shared bulk net (well assignment).
    pub bulk_net: String,
    /// Whether this group is the input differential pair — the only
    /// group whose matching style is a user-facing layout option.
    pub is_input_pair: bool,
    /// The members, in layout order.
    pub devices: Vec<GroupDevice>,
}

/// A standalone device (tail source, cascode, output stage) that folds
/// individually instead of stacking with a partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingleDevice {
    /// Device name (must exist in [`Topology::devices`]).
    pub name: String,
    /// Polarity.
    pub polarity: Polarity,
    /// Drain net.
    pub d: String,
    /// Gate net.
    pub g: String,
    /// Source net.
    pub s: String,
    /// Bulk net (well assignment).
    pub b: String,
}

/// One layout module: a matched stack or an individually folded device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutModule {
    /// A matched group realised as one stack.
    Group(MatchedGroup),
    /// An individually folded device.
    Single(SingleDevice),
}

/// Everything the layout planner needs to know about a topology: its
/// modules (matched groups and standalone devices), their placement into
/// rows, and the current each net carries (for electromigration-aware
/// wire sizing).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyLayoutSpec {
    /// Cell name of the generated layout.
    pub cell_name: &'static str,
    /// Modules in a stable order; row indices below refer to positions
    /// in this list.
    pub modules: Vec<LayoutModule>,
    /// Placement rows from the *bottom* of the cell upwards, each row a
    /// list of module indices (NMOS rows conventionally at the bottom,
    /// PMOS rows sharing a well region at the top).
    pub placement_rows: Vec<Vec<usize>>,
    /// Current carried by each signal net (A). Gate/bias nets carry none
    /// and are omitted; the `vdd` entry is the total supply current.
    pub net_currents: BTreeMap<String, f64>,
}

/// An amplifier the full sizing↔layout loop can drive: everything the
/// measurement pipeline ([`crate::eval`]) needs to characterise it, plus
/// the sized-device map and the matched-group/placement metadata for the
/// layout planner.
///
/// All methods are object-safe; the flow holds topologies as
/// `Box<dyn Topology>` / `Arc<dyn Topology>`. A new topology gets the
/// whole Table-1 measurement suite and the layout loop by implementing
/// these seven methods.
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Stable topology name: the registry key, and the prefix of every
    /// [`EvalCache`](crate::EvalCache) key, so two topologies whose
    /// fingerprints happen to emit identical bytes never alias.
    fn topology_name(&self) -> &'static str;

    /// The specification the amplifier was sized for.
    fn specs(&self) -> &OtaSpecs;

    /// Build the amplifier netlist in the requested testbench, with
    /// parasitics per `mode`. Sources must be named `vinp`/`vinn`, the
    /// supply `vdd`, and the output node `out`.
    fn netlist(&self, tech: &Technology, mode: &ParasiticMode, drive: InputDrive) -> Circuit;

    /// Rough slew-rate estimate (V/s), used only to choose the transient
    /// time scale.
    fn slew_estimate(&self) -> f64;

    /// Mix every field that influences [`Topology::netlist`] and
    /// [`Topology::slew_estimate`] — geometries, bias points, passives
    /// and specs — into `h`. The hasher records the exact byte stream
    /// alongside the hash, so the cache verifies the full key on lookup
    /// and a 64-bit hash collision can never alias two designs; a field
    /// left out, though, lets two designs that differ only in it share a
    /// key. [`FnvHasher`] keeps float quantisation uniform across the
    /// whole key.
    fn write_fingerprint(&self, h: &mut FnvHasher);

    /// The sized devices by name.
    fn devices(&self) -> &BTreeMap<String, SizedDevice>;

    /// The layout description: matched groups, standalone devices,
    /// placement rows and net currents. The supply current is the `vdd`
    /// entry of [`TopologyLayoutSpec::net_currents`].
    fn layout_spec(&self) -> TopologyLayoutSpec;
}

/// A knowledge-based sizing procedure that produces a [`Topology`] —
/// the object-safe face of `FoldedCascodePlan::size` and friends, which
/// is what lets the flow, the Table-1 cases and the batch engine take
/// the topology as an input instead of naming one.
pub trait TopologyPlan: std::fmt::Debug + Send + Sync {
    /// Stable name of the topology this plan sizes.
    fn topology_name(&self) -> &'static str;

    /// Size the topology for `specs` in `tech`, accounting for
    /// parasitics per `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`SizingError`] when the specs are invalid or a device
    /// cannot deliver its target.
    fn size_topology(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<Box<dyn Topology>, SizingError>;

    /// A specification this topology can actually meet — used as the
    /// per-topology base point of mixed-topology sweeps (the telescopic
    /// stack, for instance, rejects the paper's wide output swing).
    fn example_specs(&self) -> OtaSpecs {
        OtaSpecs::paper_example()
    }
}

/// Name → sizing-plan registry, so batch drivers can select topologies
/// by string (`batch_sweep --topology telescopic,two_stage`).
#[derive(Debug, Clone, Default)]
pub struct TopologyRegistry {
    entries: Vec<(String, Arc<dyn TopologyPlan>)>,
}

impl TopologyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry of built-in topologies with their
    /// default plans: `folded_cascode`, `telescopic`, `two_stage`. Every
    /// caller gets the same plan `Arc` for a name, so equal jobs built
    /// apart share one entry of a preparation memo, which compares plans
    /// by pointer.
    pub fn builtin() -> &'static Self {
        static BUILTIN: OnceLock<TopologyRegistry> = OnceLock::new();
        BUILTIN.get_or_init(|| {
            let mut r = Self::new();
            r.register(Arc::new(
                crate::ota::folded_cascode::FoldedCascodePlan::default(),
            ));
            r.register(Arc::new(crate::ota::telescopic::TelescopicPlan::default()));
            r.register(Arc::new(crate::ota::two_stage::TwoStagePlan::default()));
            r
        })
    }

    /// Register a plan under its [`TopologyPlan::topology_name`],
    /// replacing any previous plan of the same name.
    pub fn register(&mut self, plan: Arc<dyn TopologyPlan>) {
        let name = plan.topology_name().to_owned();
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = plan;
        } else {
            self.entries.push((name, plan));
        }
    }

    /// The plan registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<dyn TopologyPlan>> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.clone())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::ParasiticMode;

    #[test]
    fn builtin_registry_has_all_three_topologies() {
        let r = TopologyRegistry::builtin();
        assert_eq!(r.names(), ["folded_cascode", "telescopic", "two_stage"]);
        for name in r.names() {
            let plan = r.get(name).unwrap();
            assert_eq!(plan.topology_name(), name);
        }
        assert!(r.get("nested_miller").is_none());
    }

    #[test]
    fn registry_sizes_each_topology_through_the_trait() {
        let tech = Technology::cmos06();
        let r = TopologyRegistry::builtin();
        for name in ["folded_cascode", "telescopic", "two_stage"] {
            let plan = r.get(name).unwrap();
            let topo = plan
                .size_topology(&tech, &plan.example_specs(), &ParasiticMode::None)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(topo.topology_name(), name);
            assert!(!topo.devices().is_empty());
            let spec = topo.layout_spec();
            assert!(spec.net_currents["vdd"] > 0.0, "{name}");
            assert!(!spec.modules.is_empty());
            // Every module index in the rows refers to a real module, and
            // every module is placed exactly once.
            let placed: Vec<usize> = spec.placement_rows.iter().flatten().copied().collect();
            let mut sorted = placed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), spec.modules.len(), "{name}: placement");
            assert!(placed.iter().all(|&i| i < spec.modules.len()));
            // Every module device exists in the sized-device map.
            for m in &spec.modules {
                match m {
                    LayoutModule::Group(g) => {
                        assert!(g.devices.len() >= 2, "{name}/{}", g.name);
                        for d in &g.devices {
                            assert!(topo.devices().contains_key(&d.name), "{name}/{}", d.name);
                        }
                    }
                    LayoutModule::Single(s) => {
                        assert!(topo.devices().contains_key(&s.name), "{name}/{}", s.name);
                    }
                }
            }
        }
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = TopologyRegistry::new();
        r.register(Arc::new(crate::ota::telescopic::TelescopicPlan::default()));
        let replacement = crate::ota::telescopic::TelescopicPlan {
            l_in: 2.0e-6,
            ..Default::default()
        };
        r.register(Arc::new(replacement));
        assert_eq!(r.names().len(), 1);
        let got = r.get("telescopic").unwrap();
        let got = format!("{got:?}");
        assert!(got.contains("2e-6"), "{got}");
    }
}
