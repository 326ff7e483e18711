//! Amplifier topologies and their design plans.
//!
//! COMDIAC selects circuit topologies "from among fixed alternatives,
//! each with associated detailed design knowledge"; the hierarchy makes
//! adding topologies simple. Three are provided:
//!
//! * [`folded_cascode`] — the paper's Fig. 4 example;
//! * [`two_stage`] — a Miller-compensated two-stage OTA;
//! * [`telescopic`] — a telescopic-cascode OTA composed from the
//!   building-block routines of [`crate::blocks`], demonstrating the
//!   extensibility the paper claims.
//!
//! Each topology states its transistor connectivity once, as a `PINS`
//! table of [`Pins`]. Everything else that names a net is read from that
//! table here: the netlist the sizing tool simulates, the modules the
//! layout tool lays out and the nets that take routing parasitics. So
//! the layout tool lays out the circuit the sizing tool simulates.

pub mod folded_cascode;
pub mod telescopic;
pub mod two_stage;

pub use folded_cascode::{FoldedCascodeOta, FoldedCascodePlan};
pub use telescopic::{TelescopicOta, TelescopicPlan};
pub use two_stage::{TwoStageOta, TwoStagePlan};

use crate::eval::InputDrive;
use crate::feedback::{DiffGeom, ParasiticMode};
use crate::topology::{GroupDevice, LayoutModule, MatchedGroup, SingleDevice, Topology};
use folded_cascode::SizedDevice;
use losac_device::folding::{DiffusionGeometry, FoldSpec};
use losac_device::Mosfet;
use losac_sim::netlist::{Circuit, Waveform};
use losac_tech::units::m_to_nm;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;

/// One transistor of a topology and the nets on its drain, gate, source
/// and bulk. Ground is spelled `gnd`: [`Circuit`] aliases it to node 0,
/// and it is the layout planner's name for the ground net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    /// Device name (a key of [`Topology::devices`]).
    pub name: &'static str,
    /// Drain net.
    pub d: &'static str,
    /// Gate net.
    pub g: &'static str,
    /// Source net.
    pub s: &'static str,
    /// Bulk net.
    pub b: &'static str,
}

impl Pins {
    /// One row of a pin table.
    pub const fn new(
        name: &'static str,
        d: &'static str,
        g: &'static str,
        s: &'static str,
        b: &'static str,
    ) -> Self {
        Self { name, d, g, s, b }
    }
}

/// Build a topology's netlist from its pin table, in this element order:
///
/// 1. the `vdd` supply, then the `bias` sources (`(source, net, volts)`);
/// 2. the input drive: `vinp`/`vinn` sources, or a step on `vinp` with
///    every `vinn` gate wired to `out` under [`InputDrive::UnityBuffer`];
/// 3. the transistors in table order, at their drawn widths, with the
///    mode's diffusion geometry;
/// 4. the `caps` (`(name, a, b, farads)`), then the load `cload`;
/// 5. the mode's routing, coupling and well parasitics on every net the
///    table touches, except `gnd` and the bias nets, which the testbench
///    drives ideally.
///
/// Element order is stamp order, so the table order is part of every
/// number the netlist produces.
pub(crate) fn build_netlist(
    ota: &dyn Topology,
    pins: &[Pins],
    bias: &[(&str, &str, f64)],
    caps: &[(&str, &str, &str, f64)],
    tech: &Technology,
    mode: &ParasiticMode,
    drive: InputDrive,
) -> Circuit {
    let specs = ota.specs();
    let devices = ota.devices();
    let mut c = Circuit::new();
    c.vsource("vdd", "vdd", "0", specs.vdd);
    for &(name, net, volts) in bias {
        c.vsource(name, net, "0", volts);
    }

    let cm = specs.input_cm_bias();
    let vinn_node = match drive {
        InputDrive::Differential { dv } => {
            c.vsource("vinp", "vinp", "0", cm + dv / 2.0);
            c.vsource("vinn", "vinn", "0", cm - dv / 2.0);
            "vinn"
        }
        InputDrive::UnityBuffer {
            step_from,
            step_to,
            at,
            rise,
        } => {
            c.vsource_tran(
                "vinp",
                "vinp",
                "0",
                step_from,
                Waveform::Step {
                    level: step_to,
                    at,
                    rise,
                },
            );
            "out"
        }
    };

    for p in pins {
        let dev = &devices[p.name];
        let w = drawn_w(devices, mode, p.name);
        let m = Mosfet::new(*tech.mos(dev.polarity), w, dev.l);
        let junction = match dev.polarity {
            Polarity::Nmos => tech.caps.ndiff,
            Polarity::Pmos => tech.caps.pdiff,
        };
        let g = if p.g == "vinn" { vinn_node } else { p.g };
        c.mos(
            p.name,
            p.d,
            g,
            p.s,
            p.b,
            m,
            junction,
            diffusion_geometry(tech, mode, p.name, &m, true),
            diffusion_geometry(tech, mode, p.name, &m, false),
        );
    }

    for &(name, a, b, farads) in caps {
        c.capacitor(name, a, b, farads);
    }
    c.capacitor("cload", "out", "0", specs.c_load);

    let routed: Vec<&str> = pins
        .iter()
        .flat_map(|p| [p.d, p.g, p.s, p.b])
        .filter(|&net| net != "gnd" && bias.iter().all(|&(_, b, _)| b != net))
        .collect();
    add_routing_caps(&mut c, mode, |net| routed.contains(&net));
    c
}

/// Drawn width of a device (m): the layout feedback's grid-snapped width
/// when it corresponds to *this* sizing (within 5 %), the synthesised
/// width otherwise. Feedback carried over from a previous sizing
/// iteration describes the old geometry and must not override freshly
/// computed widths — only the final snap of the same widths.
fn drawn_w(devices: &BTreeMap<String, SizedDevice>, mode: &ParasiticMode, name: &str) -> f64 {
    let w = devices[name].w;
    if let Some(fb) = mode.feedback() {
        if let Some(d) = fb.device(name) {
            let drawn = d.drawn_w as f64 * 1e-9;
            if (drawn - w).abs() <= 0.05 * w {
                return drawn;
            }
        }
    }
    w
}

/// Attach the mode's routing, coupling and well parasitics (case 4 only)
/// to the netlist as lumped capacitors, restricted to nets `is_routed`
/// accepts. The feedback maps iterate in key order, so the element order
/// (and thus the matrix stamp order) is deterministic.
fn add_routing_caps(c: &mut Circuit, mode: &ParasiticMode, is_routed: impl Fn(&str) -> bool) {
    if !mode.includes_routing() {
        return;
    }
    let Some(fb) = mode.feedback() else { return };
    let mut k = 0usize;
    for (net, cap) in &fb.net_caps {
        if is_routed(net) && *cap > 0.0 {
            c.capacitor(&format!("cr{k}"), net, "0", *cap);
            k += 1;
        }
    }
    for ((na, nb), cap) in &fb.coupling {
        if !(is_routed(na) && is_routed(nb) && *cap > 0.0) {
            continue;
        }
        if fb.lump_coupling_to_ground {
            // The sizing tool's view: one lumped capacitance per net.
            c.capacitor(&format!("cca{k}"), na, "0", *cap);
            c.capacitor(&format!("ccb{k}"), nb, "0", *cap);
        } else {
            c.capacitor(&format!("cc{k}"), na, nb, *cap);
        }
        k += 1;
    }
    for (net, cap) in &fb.well_caps {
        if is_routed(net) && *cap > 0.0 {
            c.capacitor(&format!("cw{k}"), net, "0", *cap);
            k += 1;
        }
    }
}

/// Lumped routing/coupling/well capacitance the mode attributes to `net`.
/// Shared by every topology's sizing procedure: the extra load the layout
/// feedback puts on a net is what closes the sizing↔layout loop.
pub(crate) fn parasitic_on(mode: &ParasiticMode, net: &str) -> f64 {
    let Some(fb) = mode.feedback() else {
        return 0.0;
    };
    if !mode.includes_routing() {
        return 0.0;
    }
    losac_tech::parasitics::lumped_on(&fb.net_caps, &fb.well_caps, &fb.coupling, net)
}

/// Diffusion geometry of one terminal under the given parasitic mode.
pub(crate) fn diffusion_geometry(
    tech: &Technology,
    mode: &ParasiticMode,
    name: &str,
    m: &Mosfet,
    drain: bool,
) -> DiffGeom {
    match mode {
        ParasiticMode::None => DiffGeom::default(),
        ParasiticMode::UnfoldedDiffusion => {
            let w_nm = m_to_nm(m.w).max(tech.rules.active_width);
            let g = if drain {
                DiffusionGeometry::drain(w_nm, FoldSpec::UNFOLDED, &tech.rules)
            } else {
                DiffusionGeometry::source(w_nm, FoldSpec::UNFOLDED, &tech.rules)
            };
            DiffGeom {
                area: g.area,
                perimeter: g.perimeter,
            }
        }
        ParasiticMode::DiffusionOnly(fb) | ParasiticMode::Full(fb) => match fb.device(name) {
            Some(d) => {
                if drain {
                    d.drain
                } else {
                    d.source
                }
            }
            None => DiffGeom::default(),
        },
    }
}

/// Layout modules read from a pin table: every net from the table, the
/// polarity from the sized devices.
pub(crate) struct Modules<'a> {
    pins: &'a [Pins],
    devices: &'a BTreeMap<String, SizedDevice>,
}

impl<'a> Modules<'a> {
    pub(crate) fn new(pins: &'a [Pins], devices: &'a BTreeMap<String, SizedDevice>) -> Self {
        Self { pins, devices }
    }

    fn pins(&self, name: &str) -> &'a Pins {
        self.pins
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the pin table"))
    }

    /// A matched group laid out as one stack; `members` share the first
    /// member's source and bulk nets.
    pub(crate) fn group(&self, name: &str, is_input_pair: bool, members: &[&str]) -> LayoutModule {
        let lead = self.pins(members[0]);
        let devices = members
            .iter()
            .map(|&member| {
                let p = self.pins(member);
                assert!(
                    (p.s, p.b) == (lead.s, lead.b),
                    "{member} does not share {}'s source and bulk",
                    lead.name
                );
                GroupDevice {
                    name: p.name.into(),
                    drain_net: p.d.into(),
                    gate_net: p.g.into(),
                }
            })
            .collect();
        LayoutModule::Group(MatchedGroup {
            name: name.into(),
            polarity: self.devices[lead.name].polarity,
            source_net: lead.s.into(),
            bulk_net: lead.b.into(),
            is_input_pair,
            devices,
        })
    }

    /// A device folded on its own.
    pub(crate) fn single(&self, name: &str) -> LayoutModule {
        let p = self.pins(name);
        LayoutModule::Single(SingleDevice {
            name: p.name.into(),
            polarity: self.devices[p.name].polarity,
            d: p.d.into(),
            g: p.g.into(),
            s: p.s.into(),
            b: p.b.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::{DeviceFeedback, LayoutFeedback};

    #[test]
    fn drawn_w_prefers_matching_feedback_only() {
        let tech = Technology::cmos06();
        let ota = TelescopicPlan::default()
            .size(
                &tech,
                &telescopic::telescopic_example_specs(),
                &ParasiticMode::None,
            )
            .unwrap();
        let w = ota.devices["mp1"].w;
        let mut fb = LayoutFeedback::default();
        fb.devices.insert(
            "mp1".to_owned(),
            DeviceFeedback {
                folds: 4,
                drawn_w: m_to_nm(w * 1.02),
                drain: Default::default(),
                source: Default::default(),
            },
        );
        let mode = ParasiticMode::DiffusionOnly(fb.clone());
        // Within 5 %: the drawn width wins.
        let drawn = drawn_w(&ota.devices, &mode, "mp1");
        assert!((drawn - w * 1.02).abs() < 2e-9, "{drawn} vs {}", w * 1.02);
        // Stale feedback (way off this sizing) is ignored.
        fb.devices.get_mut("mp1").unwrap().drawn_w = m_to_nm(w * 2.0);
        let mode = ParasiticMode::DiffusionOnly(fb);
        assert_eq!(drawn_w(&ota.devices, &mode, "mp1"), w);
        // No feedback at all: the synthesised width.
        assert_eq!(
            drawn_w(&ota.devices, &ParasiticMode::None, "mp2"),
            ota.devices["mp2"].w
        );
    }
}
