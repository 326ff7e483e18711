//! The layout plan: the procedural layout "language" of the flow.
//!
//! A [`LayoutPlan`] declares the circuit's modules (folded single
//! transistors and matched stacks), the slicing structure that places
//! them, and the DC current of every net. It then runs in either of the
//! paper's two modes:
//!
//! * [`LayoutPlan::calculate_parasitics`] — the *parasitic calculation
//!   mode*: area optimisation chooses every transistor's fold count under
//!   the shape constraint, wires are routed with reliability-driven
//!   widths, and the resulting folding styles, diffusion geometries,
//!   routing/coupling capacitances and well capacitances are reported
//!   back to the sizing tool. As in the paper, the area optimisation
//!   commits no geometry: the shape functions *measure* every fold
//!   candidate with [`row_size`], which runs the row routine into a
//!   bounding box. Only the chosen realisation is drawn, once per module,
//!   and then routed and extracted, since the report's routing and
//!   coupling capacitances come from that geometry.
//! * [`LayoutPlan::generate`] — the *generation mode*: the same pipeline,
//!   returning the physical layout cell as well.

use crate::cell::Cell;
use crate::extract::{extract_default, Extraction};
use crate::route::{channel_demand, route_rows, RouteOptions, RouteReport};
use crate::row::{build_row, min_finger_width, row_size, Row, RowLayout};
use crate::shape::{ShapeFunction, Variant};
use crate::slicing::{optimize_xy, Realization, ShapeConstraint, SlicingTree};
use crate::stack::{plan_stack, stack_row_spec, StackPlan, StackSpec};
use losac_device::DiffGeom;
use losac_obs::Counter;
use losac_tech::units::Nm;
use losac_tech::{Polarity, Technology};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Full layout-generation pipeline runs (both modes).
static GENERATE_CALLS: Counter = Counter::new("layout.generate.calls");

/// Fold-count policy for a single transistor module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldPolicy {
    /// Even fold counts with the drain on internal diffusions — the
    /// paper's policy for frequency-critical nets (halves the drain
    /// capacitance, Fig. 2 case (a)).
    EvenInternal,
    /// Any fold count ≥ 1 (odd counts leave one drain on an end
    /// diffusion).
    Free,
    /// Exactly this fold count.
    Fixed(u32),
}

/// A single (possibly folded) transistor module.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDef {
    /// Device name.
    pub name: String,
    /// Polarity.
    pub polarity: Polarity,
    /// Total channel width (nm).
    pub w: Nm,
    /// Drawn channel length (nm).
    pub l: Nm,
    /// Drain net.
    pub d: String,
    /// Gate net.
    pub g: String,
    /// Source net.
    pub s: String,
    /// Bulk net.
    pub b: String,
    /// Folding policy.
    pub policy: FoldPolicy,
}

/// A module of the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Module {
    /// One folded transistor; the area optimiser picks the fold count.
    Device(DeviceDef),
    /// A matched stack (pair, mirror); finger counts are fixed by the
    /// matching constraints.
    Stack(StackSpec),
}

impl Module {
    /// Module (cell) name.
    pub fn name(&self) -> &str {
        match self {
            Module::Device(d) => &d.name,
            Module::Stack(s) => &s.name,
        }
    }
}

/// Per-transistor layout outcome reported to the sizing tool.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLayout {
    /// Chosen fold count.
    pub folds: u32,
    /// Drawn finger width (nm) — after grid snapping.
    pub finger_w: Nm,
    /// Drawn total width (nm) = folds × finger width; may differ from the
    /// requested width by grid snapping (the source of the paper's
    /// residual offset voltage).
    pub drawn_w: Nm,
    /// Drain diffusion geometry.
    pub drain: DiffGeom,
    /// Source diffusion geometry.
    pub source: DiffGeom,
}

/// The full result of running a plan.
#[derive(Debug, Clone)]
pub struct GeneratedLayout {
    /// The physical layout (modules placed, channel routed).
    pub cell: Cell,
    /// Chosen realisation of the slicing tree.
    pub realization: Realization,
    /// Routing summary.
    pub route: RouteReport,
    /// Extracted wire/coupling/well parasitics.
    pub extraction: Extraction,
    /// Per-transistor folding and diffusion report.
    pub devices: BTreeMap<String, DeviceLayout>,
    /// Matching metrics of every stack module.
    pub stack_plans: BTreeMap<String, StackPlan>,
    /// Did every wire/contact meet its electromigration requirement?
    pub em_clean: bool,
}

impl GeneratedLayout {
    /// Bounding-box area (m²).
    pub fn area_m2(&self) -> f64 {
        self.cell.bbox().map_or(0.0, |b| b.area_m2())
    }
}

/// The parasitic-calculation-mode report: what the layout tool sends back
/// to the sizing tool (§2 of the paper).
#[derive(Debug, Clone)]
pub struct ParasiticReport {
    /// Per-transistor folding style and diffusion geometry.
    pub devices: BTreeMap<String, DeviceLayout>,
    /// Routing capacitance to ground per net (F), including device-level
    /// wiring (straps, rails).
    pub net_cap: BTreeMap<String, f64>,
    /// Coupling capacitance between net pairs (F).
    pub coupling: BTreeMap<(String, String), f64>,
    /// Floating-well capacitance per net (F).
    pub well_cap: BTreeMap<String, f64>,
    /// Layout bounding box (w, h) in nm.
    pub bbox: (Nm, Nm),
    /// Electromigration-clean?
    pub em_clean: bool,
}

impl ParasiticReport {
    /// Total parasitic capacitance the sizing tool should lump on `net`
    /// (ground + coupling + well), excluding diffusion junctions (those
    /// are handed over as per-device geometry).
    pub fn lumped_on(&self, net: &str) -> f64 {
        losac_tech::parasitics::lumped_on(&self.net_cap, &self.well_cap, &self.coupling, net)
    }

    /// Compare against another report: the largest relative change of any
    /// per-net lumped capacitance (used for the flow's convergence test).
    /// Nets below a 2 fF floor are compared against the floor instead of
    /// their own magnitude, so femtofarad noise on short stubs cannot keep
    /// the loop alive.
    pub fn max_relative_change(&self, other: &ParasiticReport) -> f64 {
        const FLOOR: f64 = 2e-15;
        let nets: BTreeSet<&String> = self.net_cap.keys().chain(other.net_cap.keys()).collect();
        let mut worst: f64 = 0.0;
        for net in nets {
            let a = self.lumped_on(net);
            let b = other.lumped_on(net);
            let denom = a.abs().max(b.abs()).max(FLOOR);
            worst = worst.max((a - b).abs() / denom);
        }
        worst
    }
}

/// Plan-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    message: String,
}

impl PlanError {
    fn new(m: impl Into<String>) -> Self {
        Self { message: m.into() }
    }

    /// Create an error with an explicit message. Lets upstream crates
    /// (the flow's fault-injection harness in particular) surface a
    /// layout-stage failure on the tool's behalf.
    pub fn with_message(m: impl Into<String>) -> Self {
        Self::new(m)
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout plan failed: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

/// A layout plan: modules + slicing structure + net currents.
#[derive(Debug, Clone)]
pub struct LayoutPlan {
    /// Top-cell name.
    pub name: String,
    /// The modules, indexed by the slicing tree.
    pub modules: Vec<Module>,
    /// Placement structure over module indices.
    pub tree: SlicingTree,
    /// DC current per net (A) for reliability sizing.
    pub net_currents: BTreeMap<String, f64>,
    /// Spacing between sibling modules (nm).
    pub spacing: Nm,
}

impl LayoutPlan {
    /// Create a plan with a simple row placement of all modules and
    /// default spacing.
    pub fn new(name: impl Into<String>, modules: Vec<Module>) -> Self {
        let ids: Vec<usize> = (0..modules.len()).collect();
        // An empty plan gets a placeholder tree; `generate` rejects it
        // before the tree is ever used.
        let tree = if ids.is_empty() {
            SlicingTree::Leaf(0)
        } else {
            SlicingTree::row_of(&ids)
        };
        Self {
            name: name.into(),
            modules,
            tree,
            net_currents: BTreeMap::new(),
            spacing: 4_000,
        }
    }

    /// Run the full pipeline in generation mode.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when a module cannot be realised (width below
    /// one contactable finger, impossible shape constraint, …).
    pub fn generate(
        &self,
        tech: &Technology,
        constraint: ShapeConstraint,
    ) -> Result<GeneratedLayout, PlanError> {
        let _span = losac_obs::span_with(
            "layout.generate",
            vec![losac_obs::f("modules", self.modules.len())],
        );
        GENERATE_CALLS.incr();
        if self.modules.is_empty() {
            return Err(PlanError::new("a plan needs at least one module"));
        }
        // 1. Shape functions per module. For devices: one variant per
        //    admissible fold count; the row routine measures its exact
        //    bounding box without drawing it. For stacks: one fixed
        //    variant.
        let shape_span = losac_obs::span("layout.shapes");
        let row_err = |name: &str, e| PlanError::new(format!("{name}: {e}"));
        let mut shapes: Vec<ShapeFunction> = Vec::with_capacity(self.modules.len());
        let mut stack_plans: BTreeMap<String, StackPlan> = BTreeMap::new();
        for m in &self.modules {
            match m {
                Module::Device(def) => {
                    let mut variants = Vec::new();
                    for nf in self.fold_candidates(tech, def)? {
                        let (w, h) = row_size(tech, &self.folded(tech, def, nf)?)
                            .map_err(|e| row_err(&def.name, e))?;
                        variants.push(Variant { w, h, tag: nf });
                    }
                    if variants.is_empty() {
                        return Err(PlanError::new(format!(
                            "{}: no admissible fold count (W = {} nm)",
                            def.name, def.w
                        )));
                    }
                    shapes.push(ShapeFunction::new(variants));
                }
                Module::Stack(spec) => {
                    let plan = plan_stack(spec)
                        .map_err(|e| PlanError::new(format!("{}: {e}", spec.name)))?;
                    let (w, h) = row_size(tech, &stack_row_spec(spec, &plan))
                        .map_err(|e| row_err(&spec.name, e))?;
                    stack_plans.insert(spec.name.clone(), plan);
                    shapes.push(ShapeFunction::fixed(w, h, 0));
                }
            }
        }

        drop(shape_span);

        // 2 + 3. Place and build at the plan's spacing, measure the
        //    routing demand of the channels between the module rows, and
        //    re-place with the vertical spacing the channels need.
        let place_span = losac_obs::span("layout.place");
        // The drawn row of each module, tagged with its variant (the fold
        // count; 0 for a stack): the second pass reuses every row the
        // first drew for the same choice.
        let mut drawn: Vec<Option<(u32, Row)>> = vec![None; self.modules.len()];
        let mut place_and_build = |spacing_y: Nm, draw: bool| -> Result<_, PlanError> {
            let realization =
                optimize_xy(&self.tree, &shapes, (self.spacing, spacing_y), constraint)
                    .map_err(|e| PlanError::new(e.to_string()))?;
            let mut top = Cell::new(self.name.clone());
            let mut spans: Vec<(Nm, Nm)> = Vec::new();
            for (idx, m) in self.modules.iter().enumerate() {
                let (x, y) = realization.positions.get(&idx).copied().ok_or_else(|| {
                    PlanError::new(format!("module {idx} missing from the realisation"))
                })?;
                let tag = realization.choices[&idx];
                if !matches!(&drawn[idx], Some((t, _)) if *t == tag) {
                    let row = match m {
                        Module::Device(def) => build_row(tech, &self.folded(tech, def, tag)?),
                        Module::Stack(spec) => {
                            build_row(tech, &stack_row_spec(spec, &stack_plans[&spec.name]))
                        }
                    };
                    drawn[idx] = Some((tag, row.map_err(|e| row_err(m.name(), e))?));
                }
                let row = &drawn[idx].as_ref().expect("drawn above").1;
                // Normalise the module so its bbox lower-left sits at (x, y).
                let bb = row.cell.bbox().expect("module has geometry");
                let (dx, dy) = (x - bb.x0, y - bb.y0);
                if draw {
                    top.place(&row.cell, dx, dy, m.name());
                } else {
                    top.place_ports(&row.cell, dx, dy, m.name());
                }
                spans.push((y, y + bb.height()));
            }
            Ok((realization, top, cluster_rows(spans)))
        };

        // The trial placement places ports only: the channel demand
        // reads nothing else.
        let (_, dry_top, dry_rows) = place_and_build(self.spacing, false)?;
        let demand = channel_demand(&dry_top, &dry_rows);
        // Interior channels need room for their tracks: per net one track
        // width (EM-widened nets are rare; budget 2× minimum) plus the
        // doubled inter-track spacing, plus margins on both sides.
        let r = &tech.rules;
        let track_pitch = 2 * r.metal1_width + 2 * r.metal1_space;
        let margin = RouteOptions::default().channel_margin;
        let interior_need = demand
            .iter()
            .skip(1)
            .take(demand.len().saturating_sub(2))
            .map(|&n| 2 * margin + (n as Nm) * track_pitch)
            .max()
            .unwrap_or(0);
        let spacing_y = self.spacing.max(tech.snap_up(interior_need));

        let (realization, mut top, rows) = place_and_build(spacing_y, true)?;
        let mut devices: BTreeMap<String, DeviceLayout> = BTreeMap::new();
        let mut em_clean = true;
        for (m, (nf, row)) in self.modules.iter().zip(drawn.iter().flatten()) {
            em_clean &= row.em_clean;
            match m {
                Module::Device(def) => {
                    let dev = self.folded(tech, def, *nf)?;
                    devices.insert(def.name.clone(), device_layout(&dev, row));
                }
                Module::Stack(spec) => {
                    devices.extend(stack_device_layouts(tech, spec, &stack_plans[&spec.name]));
                }
            }
        }
        drop(place_span);

        // 4. Channel routing between the rows.
        let route = {
            let _route_span = losac_obs::span("layout.route");
            route_rows(
                tech,
                &mut top,
                &self.net_currents,
                &rows,
                &RouteOptions::default(),
            )
            .map_err(|e| PlanError::new(e.to_string()))?
        };

        // 5. Extraction.
        let extraction = {
            let _extract_span = losac_obs::span("layout.extract");
            extract_default(tech, &top)
        };

        Ok(GeneratedLayout {
            cell: top,
            realization,
            route,
            extraction,
            devices,
            stack_plans,
            em_clean,
        })
    }

    /// Run in parasitic-calculation mode: same pipeline, report only.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LayoutPlan::generate`].
    pub fn calculate_parasitics(
        &self,
        tech: &Technology,
        constraint: ShapeConstraint,
    ) -> Result<ParasiticReport, PlanError> {
        let g = self.generate(tech, constraint)?;
        let bbox = g.cell.bbox().expect("generated layout has geometry");
        Ok(ParasiticReport {
            devices: g.devices,
            net_cap: g.extraction.net_cap,
            coupling: g.extraction.coupling,
            well_cap: g.extraction.well_cap,
            bbox: (bbox.width(), bbox.height()),
            em_clean: g.em_clean,
        })
    }

    /// Admissible fold counts for a device under its policy: every count
    /// whose finger is at least one contactable width. These are the
    /// variants of the device's shape function.
    ///
    /// # Errors
    ///
    /// Fails when no count fits the policy.
    pub fn fold_candidates(
        &self,
        tech: &Technology,
        def: &DeviceDef,
    ) -> Result<Vec<u32>, PlanError> {
        let min_wf = min_finger_width(tech);
        let nf_max = ((def.w / min_wf) as u32).max(1);
        let all: Vec<u32> = match def.policy {
            FoldPolicy::Fixed(nf) => vec![nf],
            FoldPolicy::EvenInternal => (1..=nf_max).filter(|nf| nf % 2 == 0).collect(),
            FoldPolicy::Free => (1..=nf_max).collect(),
        };
        let ok: Vec<u32> = all
            .into_iter()
            .filter(|&nf| tech.snap(def.w / nf as Nm) >= min_wf)
            .collect();
        if ok.is_empty() && matches!(def.policy, FoldPolicy::EvenInternal) {
            // A device too narrow for two contactable fingers falls back
            // to a single finger (the paper's flow does the same: folding
            // is an optimisation, not a requirement).
            return Ok(vec![1]);
        }
        if ok.is_empty() {
            return Err(PlanError::new(format!(
                "{}: no fold count fits W = {} nm (minimum finger {} nm)",
                def.name, def.w, min_wf
            )));
        }
        Ok(ok)
    }

    /// The row of `def` folded `nf` times, read in place: the shape
    /// step measures it and the placement draws it.
    ///
    /// # Errors
    ///
    /// Fails for a zero fold count.
    pub fn folded<'a>(
        &'a self,
        tech: &Technology,
        def: &'a DeviceDef,
        nf: u32,
    ) -> Result<FoldedDevice<'a>, PlanError> {
        if nf == 0 {
            return Err(PlanError::new(format!("{}: zero folds", def.name)));
        }
        Ok(FoldedDevice {
            def,
            folds: nf as usize,
            finger_w: tech.snap(def.w / nf as Nm).max(min_finger_width(tech)),
            gate_l: def.l.max(tech.rules.poly_width),
            net_currents: &self.net_currents,
        })
    }
}

/// A single device folded into a row of equal fingers, borrowed from its
/// [`DeviceDef`] and the plan's net currents. Even fold counts put the
/// drain inside (s d s … d s); odd counts start with a drain end
/// (d s d …).
#[derive(Debug, Clone, Copy)]
pub struct FoldedDevice<'a> {
    def: &'a DeviceDef,
    folds: usize,
    finger_w: Nm,
    gate_l: Nm,
    net_currents: &'a BTreeMap<String, f64>,
}

impl RowLayout for FoldedDevice<'_> {
    fn name(&self) -> &str {
        &self.def.name
    }
    fn polarity(&self) -> Polarity {
        self.def.polarity
    }
    fn finger_w(&self) -> Nm {
        self.finger_w
    }
    fn gate_l(&self) -> Nm {
        self.gate_l
    }
    fn fingers(&self) -> usize {
        self.folds
    }
    fn strips(&self) -> usize {
        self.folds + 1
    }
    fn strip_net(&self, i: usize) -> &str {
        if (i % 2 == 1) == self.folds.is_multiple_of(2) {
            &self.def.d
        } else {
            &self.def.s
        }
    }
    fn gate_net(&self, _: usize) -> Option<&str> {
        Some(&self.def.g)
    }
    fn bulk_net(&self) -> &str {
        &self.def.b
    }
    fn net_current(&self, net: &str) -> f64 {
        self.net_currents.get(net).copied().unwrap_or(0.0)
    }
}

/// Cluster module y-extents into maximal overlapping rows (sorted
/// bottom-up). Modules placed side by side share a row; a module whose
/// span overlaps two groups merges them.
fn cluster_rows(mut spans: Vec<(Nm, Nm)>) -> Vec<(Nm, Nm)> {
    spans.sort();
    let mut rows: Vec<(Nm, Nm)> = Vec::new();
    for (y0, y1) in spans {
        match rows.last_mut() {
            Some((_, prev_y1)) if y0 <= *prev_y1 => {
                *prev_y1 = (*prev_y1).max(y1);
            }
            _ => rows.push((y0, y1)),
        }
    }
    rows
}

/// Extract the per-device layout report from a single device's drawn row.
fn device_layout(dev: &FoldedDevice, row: &Row) -> DeviceLayout {
    let def = dev.def;
    DeviceLayout {
        folds: dev.folds as u32,
        finger_w: dev.finger_w,
        drawn_w: dev.finger_w * dev.folds as Nm,
        drain: DiffGeom {
            area: row.diff_area.get(&def.d).copied().unwrap_or(0.0),
            perimeter: row.diff_perimeter.get(&def.d).copied().unwrap_or(0.0),
        },
        source: DiffGeom {
            area: row.diff_area.get(&def.s).copied().unwrap_or(0.0),
            perimeter: row.diff_perimeter.get(&def.s).copied().unwrap_or(0.0),
        },
    }
}

/// Attribute stack diffusion to its devices: drain strips belong to their
/// device, shared source strips are split between the adjacent real
/// fingers (a dummy neighbour leaves the whole strip to the other side).
fn stack_device_layouts(
    tech: &Technology,
    spec: &StackSpec,
    plan: &StackPlan,
) -> Vec<(String, DeviceLayout)> {
    let r = &tech.rules;
    let wf_m = spec.finger_w as f64 * 1e-9;
    let len_int = r.contacted_diffusion() as f64 * 1e-9;
    let len_end = r.end_diffusion() as f64 * 1e-9;
    let n = plan.fingers.len();

    #[derive(Default, Clone)]
    struct Acc {
        drain: DiffGeom,
        source: DiffGeom,
        fingers: u32,
    }
    let mut acc: BTreeMap<String, Acc> = BTreeMap::new();
    for d in &spec.devices {
        acc.insert(
            d.name.clone(),
            Acc {
                fingers: d.fingers,
                ..Default::default()
            },
        );
    }

    for (i, net) in plan.strip_nets.iter().enumerate() {
        let is_end = i == 0 || i == n;
        let len = if is_end { len_end } else { len_int };
        let area = wf_m * len;
        let mut perim = 2.0 * len;
        if is_end {
            perim += wf_m;
        }
        // Adjacent fingers.
        let left = i
            .checked_sub(1)
            .and_then(|k| plan.fingers[k].device.clone());
        let right = plan.fingers.get(i).and_then(|f| f.device.clone());
        let is_drain = spec.devices.iter().any(|d| &d.drain_net == net);
        if is_drain {
            // Drain strips touch only their own device (by construction).
            if let Some(owner) = spec
                .devices
                .iter()
                .find(|d| &d.drain_net == net)
                .map(|d| d.name.clone())
            {
                let a = acc.get_mut(&owner).expect("known device");
                a.drain.area += area;
                a.drain.perimeter += perim;
            }
        } else {
            // Source strip: split between adjacent real devices.
            match (left, right) {
                (Some(a), Some(b)) if a == b => {
                    let e = acc.get_mut(&a).expect("known device");
                    e.source.area += area;
                    e.source.perimeter += perim;
                }
                (Some(a), Some(b)) => {
                    for name in [a, b] {
                        let e = acc.get_mut(&name).expect("known device");
                        e.source.area += area / 2.0;
                        e.source.perimeter += perim / 2.0;
                    }
                }
                (Some(a), None) | (None, Some(a)) => {
                    let e = acc.get_mut(&a).expect("known device");
                    e.source.area += area;
                    e.source.perimeter += perim;
                }
                (None, None) => {} // strip between two dummies
            }
        }
    }

    acc.into_iter()
        .map(|(name, a)| {
            (
                name,
                DeviceLayout {
                    folds: a.fingers,
                    finger_w: spec.finger_w,
                    drawn_w: spec.finger_w * a.fingers as Nm,
                    drain: a.drain,
                    source: a.source,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drc;
    use crate::stack::{StackDevice, StackStyle};
    use losac_tech::units::um;

    fn tech() -> Technology {
        Technology::cmos06()
    }

    fn nmos_dev(name: &str, w_um: f64, d: &str) -> DeviceDef {
        DeviceDef {
            name: name.into(),
            polarity: Polarity::Nmos,
            w: um(w_um),
            l: um(1.0),
            d: d.into(),
            g: "g".into(),
            s: "gnd".into(),
            b: "gnd".into(),
            policy: FoldPolicy::EvenInternal,
        }
    }

    fn two_device_plan() -> LayoutPlan {
        let mut p = LayoutPlan::new(
            "amp",
            vec![
                Module::Device(nmos_dev("m1", 40.0, "out")),
                Module::Device(nmos_dev("m2", 20.0, "out")),
            ],
        );
        p.net_currents.insert("out".into(), 200e-6);
        p.net_currents.insert("gnd".into(), 400e-6);
        p
    }

    #[test]
    fn generate_places_and_routes() {
        let g = two_device_plan()
            .generate(&tech(), ShapeConstraint::MinArea)
            .unwrap();
        assert!(g.em_clean);
        assert_eq!(g.devices.len(), 2);
        // Both devices got even fold counts with internal drains.
        for (name, d) in &g.devices {
            assert_eq!(d.folds % 2, 0, "{name} folds {}", d.folds);
        }
        // The shared nets were routed.
        assert!(g.route.tracks.contains_key("out"));
        assert!(g.route.tracks.contains_key("g"));
        assert!(g.area_m2() > 0.0);
    }

    #[test]
    fn parasitic_report_consistent_with_generation() {
        let plan = two_device_plan();
        let t = tech();
        let rep = plan
            .calculate_parasitics(&t, ShapeConstraint::MinArea)
            .unwrap();
        let gen = plan.generate(&t, ShapeConstraint::MinArea).unwrap();
        // Same folding decisions in both modes.
        for (name, d) in &rep.devices {
            assert_eq!(d.folds, gen.devices[name].folds, "{name}");
        }
        // Lumped capacitance positive on the routed nets.
        assert!(rep.lumped_on("out") > 0.0);
        assert!(rep.lumped_on("g") > 0.0);
    }

    #[test]
    fn height_constraint_respected() {
        let plan = two_device_plan();
        let g = plan
            .generate(&tech(), ShapeConstraint::MaxHeight(um(30.0)))
            .unwrap();
        assert!(
            g.cell.bbox().unwrap().height() <= um(40.0),
            "module area plus channel"
        );
        // The realisation itself (modules only) respects the cap.
        assert!(g.realization.h <= um(30.0));
    }

    #[test]
    fn folding_responds_to_shape() {
        let plan = two_device_plan();
        let tall = plan
            .generate(&tech(), ShapeConstraint::MaxHeight(um(50.0)))
            .unwrap();
        let flat = plan
            .generate(&tech(), ShapeConstraint::MaxHeight(um(12.0)))
            .unwrap();
        // A tighter height cap forces more folds on the big device.
        assert!(
            flat.devices["m1"].folds >= tall.devices["m1"].folds,
            "{} vs {}",
            flat.devices["m1"].folds,
            tall.devices["m1"].folds
        );
    }

    #[test]
    fn drawn_width_snaps_to_grid() {
        let t = tech();
        let mut plan = two_device_plan();
        // A width that does not divide evenly by the chosen folds.
        if let Module::Device(d) = &mut plan.modules[0] {
            d.w = um(39.9);
        }
        let g = plan.generate(&t, ShapeConstraint::MinArea).unwrap();
        let m1 = &g.devices["m1"];
        assert_eq!(m1.finger_w % t.grid, 0);
        assert_eq!(m1.drawn_w, m1.finger_w * m1.folds as Nm);
    }

    #[test]
    fn fixed_policy_single_fold() {
        let t = tech();
        let mut plan = two_device_plan();
        if let Module::Device(d) = &mut plan.modules[0] {
            d.policy = FoldPolicy::Fixed(1);
        }
        let g = plan.generate(&t, ShapeConstraint::MinArea).unwrap();
        assert_eq!(g.devices["m1"].folds, 1);
        // Unfolded: the drain sits on one end diffusion → bigger area than
        // the folded m2 drain per unit width.
        let m1 = &g.devices["m1"];
        let m2 = &g.devices["m2"];
        let a1 = m1.drain.area / (m1.drawn_w as f64 * 1e-9);
        let a2 = m2.drain.area / (m2.drawn_w as f64 * 1e-9);
        assert!(
            a1 > 1.5 * a2,
            "folding must shrink specific drain area: {a1:e} vs {a2:e}"
        );
    }

    #[test]
    fn plan_with_stack_module() {
        let t = tech();
        let mk = |name: &str, fingers: u32| StackDevice {
            name: name.into(),
            fingers,
            drain_net: format!("d_{name}"),
            gate_net: "vb".into(),
        };
        let stack = StackSpec {
            name: "mir".into(),
            polarity: Polarity::Nmos,
            finger_w: um(4.0),
            gate_l: um(2.0),
            devices: vec![mk("ma", 2), mk("mb", 4)],
            source_net: "gnd".into(),
            bulk_net: "gnd".into(),
            end_dummies: true,
            style: StackStyle::CommonCentroid,
            net_currents: BTreeMap::new(),
        };
        let plan = LayoutPlan::new(
            "withstack",
            vec![
                Module::Stack(stack),
                Module::Device(nmos_dev("m1", 20.0, "d_ma")),
            ],
        );
        let g = plan.generate(&t, ShapeConstraint::MinArea).unwrap();
        // Stack devices reported with their fixed finger counts.
        assert_eq!(g.devices["ma"].folds, 2);
        assert_eq!(g.devices["mb"].folds, 4);
        assert!(g.stack_plans.contains_key("mir"));
        // Source diffusion attributed to both devices.
        assert!(g.devices["ma"].source.area > 0.0);
        assert!(g.devices["mb"].source.area > 0.0);
        assert!(g.devices["ma"].drain.area > 0.0);
    }

    #[test]
    fn no_cross_net_shorts_in_generated_layout() {
        let g = two_device_plan()
            .generate(&tech(), ShapeConstraint::MinArea)
            .unwrap();
        let shorts: Vec<_> = drc::check(&tech(), &g.cell)
            .into_iter()
            .filter(|v| v.rule == "short")
            .collect();
        assert!(shorts.is_empty(), "{shorts:#?}");
    }

    #[test]
    fn empty_plan_rejected() {
        let plan = LayoutPlan::new("empty", vec![]);
        assert!(plan.generate(&tech(), ShapeConstraint::MinArea).is_err());
    }

    #[test]
    fn impossible_constraint_reported() {
        let plan = two_device_plan();
        let err = plan
            .generate(&tech(), ShapeConstraint::MaxHeight(1_000))
            .unwrap_err();
        assert!(err.to_string().contains("slicing"), "{err}");
    }

    #[test]
    fn narrow_device_falls_back_to_single_finger() {
        let t = tech();
        let mut plan = two_device_plan();
        if let Module::Device(d) = &mut plan.modules[1] {
            d.w = um(1.6); // below two contactable fingers
        }
        let g = plan.generate(&t, ShapeConstraint::MinArea).unwrap();
        assert_eq!(g.devices["m2"].folds, 1);
    }
}
