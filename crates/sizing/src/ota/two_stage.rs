//! A Miller-compensated two-stage OTA.
//!
//! Provided to demonstrate the claim the paper makes about COMDIAC's
//! hierarchy: "the use of hierarchy simplifies the addition of new
//! topologies". The topology (PMOS input, NMOS mirror first stage, NMOS
//! common-source second stage under a PMOS current source, Miller
//! capacitor between the stages):
//!
//! ```text
//!  VDD ──┬───────────────┬──────┐
//!        │mptail         │mp7   │
//!       tail             │      │
//!  vinp─┤mp1   mp2├─vinn │      │
//!        │x0      │x1────┼─ cc ─┤
//!       mn3      mn4    mn6    out ── CL
//!        └────────┴──gnd─┴──────┘
//! ```
//!
//! Design recipe: the Miller capacitor sets GBW = gm1/(2π·Cc); the
//! second-stage transconductance is raised until the output pole
//! gm6/(2π·CL) and the right-half-plane zero gm6/(2π·Cc) leave the
//! requested phase margin.

use super::{build_netlist, parasitic_on, Modules, Pins};
use crate::blocks::size_device;
use crate::eval::{FnvHasher, InputDrive};
use crate::feedback::ParasiticMode;
use crate::ota::folded_cascode::{SizedDevice, SizingError};
use crate::specs::OtaSpecs;
use crate::topology::{Topology, TopologyLayoutSpec, TopologyPlan};
use losac_device::ekv::evaluate;
use losac_device::solve::vgs_for_current;
use losac_device::Mosfet;
use losac_sim::netlist::Circuit;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;

/// The transistors and their drain, gate, source and bulk nets, in
/// netlist (stamp) order.
///
/// The mirror diode sits on the *vinn* side: raising vinp starves x1,
/// the second stage inverts, and out rises. So vinp is the
/// non-inverting input, which is what the unity-buffer testbench (vinn
/// wired to out) requires for negative feedback.
pub const PINS: [Pins; 7] = [
    Pins::new("mptail", "tail", "vp1", "vdd", "vdd"),
    Pins::new("mp1", "x1", "vinp", "tail", "vdd"),
    Pins::new("mp2", "x0", "vinn", "tail", "vdd"),
    Pins::new("mn3", "x0", "x0", "gnd", "gnd"),
    Pins::new("mn4", "x1", "x0", "gnd", "gnd"),
    Pins::new("mn6", "out", "x1", "gnd", "gnd"),
    Pins::new("mp7", "out", "vp2", "vdd", "vdd"),
];

/// A sized two-stage OTA.
#[derive(Debug, Clone)]
pub struct TwoStageOta {
    /// Devices by name.
    pub devices: BTreeMap<String, SizedDevice>,
    /// Tail-source gate bias (V).
    pub vp1: f64,
    /// Second-stage current-source gate bias (V).
    pub vp2: f64,
    /// Miller capacitor (F).
    pub cc: f64,
    /// Tail current (A).
    pub i_tail: f64,
    /// Second-stage current (A).
    pub i_stage2: f64,
    /// Specs this instance was sized for.
    pub specs: OtaSpecs,
}

/// Plan knobs for the two-stage OTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoStagePlan {
    /// Channel length of every first-stage device (m).
    pub l_stage1: f64,
    /// Channel length of the second stage (m).
    pub l_stage2: f64,
    /// Miller capacitor as a fraction of the load capacitance.
    pub cc_over_cl: f64,
    /// Initial second-stage gm as a multiple of the input gm.
    pub gm6_over_gm1: f64,
}

impl Default for TwoStagePlan {
    fn default() -> Self {
        Self {
            l_stage1: 1.0e-6,
            l_stage2: 0.8e-6,
            cc_over_cl: 0.35,
            gm6_over_gm1: 8.0,
        }
    }
}

impl TwoStagePlan {
    /// Size the two-stage OTA for `specs` in `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`SizingError`] for invalid specs or unreachable targets.
    pub fn size(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<TwoStageOta, SizingError> {
        let _span =
            losac_obs::span_with("sizing.size", vec![losac_obs::f("topology", "two_stage")]);
        specs.validate().map_err(SizingError::new)?;
        let pp = &tech.pmos;
        let np = &tech.nmos;
        let vdd = specs.vdd;

        let cc = self.cc_over_cl * specs.c_load;
        let gm1 = 2.0 * std::f64::consts::PI * specs.gbw * cc * 1.05;

        // Input side headroom, as in the folded-cascode plan.
        let headroom = vdd - pp.vt0 - specs.input_cm_range.1;
        if headroom < 0.15 {
            return Err(SizingError::new(
                "input CM range incompatible with a PMOS input pair",
            ));
        }
        let veff_in = (0.4 * headroom).clamp(0.10, 0.45);
        let veff_tail = (headroom - veff_in - 0.05).clamp(0.10, 0.8);
        let veff_n = 0.20;
        let veff_2 = 0.25;
        let veff_p7 = ((vdd - specs.output_range.1) - 0.05).clamp(0.10, 0.8);

        let m_ref = Mosfet::new(*pp, 10e-6, self.l_stage1);
        let gm_over_id_in = evaluate(&m_ref, -(pp.vt0 + veff_in), -1.0, 0.0).gm_over_id();
        let i_in = gm1 / gm_over_id_in;
        let i_tail = 2.0 * i_in;

        // Phase-margin loop on the second-stage transconductance. The
        // output pole is set by the *total* output load: the specified
        // capacitor plus whatever routing, coupling and well capacitance
        // the layout feedback lumps onto the output net — the channel
        // through which the layout loop re-sizes the second stage.
        let c_out = specs.c_load + parasitic_on(mode, "out");
        let mut gm6_mult = self.gm6_over_gm1;
        let mut pm_est = 0.0;
        for _ in 0..10 {
            let gm6 = gm6_mult * gm1;
            let fu = specs.gbw;
            let p2 = gm6 / (2.0 * std::f64::consts::PI * c_out);
            let z = gm6 / (2.0 * std::f64::consts::PI * cc);
            pm_est = 90.0 - (fu / p2).atan().to_degrees() - (fu / z).atan().to_degrees();
            if pm_est >= specs.phase_margin + 2.0 || gm6_mult > 30.0 {
                break;
            }
            gm6_mult *= 1.3;
        }
        let gm6 = gm6_mult * gm1;
        let m_ref6 = Mosfet::new(*np, 10e-6, self.l_stage2);
        let gm_over_id_6 = evaluate(&m_ref6, np.vt0 + veff_2, 1.0, 0.0).gm_over_id();
        let i_stage2 = gm6 / gm_over_id_6;
        let _ = pm_est;

        let mut devices = BTreeMap::new();
        let mut size = |name: &str,
                        pol: Polarity,
                        l: f64,
                        veff: f64,
                        i: f64,
                        vds: f64|
         -> Result<(), SizingError> {
            let d = size_device(name, tech, pol, l, veff, i, vds)?;
            devices.insert(name.to_owned(), d);
            Ok(())
        };

        size("mp1", Polarity::Pmos, self.l_stage1, veff_in, i_in, 0.9)?;
        size("mp2", Polarity::Pmos, self.l_stage1, veff_in, i_in, 0.9)?;
        size(
            "mptail",
            Polarity::Pmos,
            self.l_stage1,
            veff_tail,
            i_tail,
            veff_tail + 0.2,
        )?;
        size(
            "mn3",
            Polarity::Nmos,
            self.l_stage1,
            veff_n,
            i_in,
            np.vt0 + veff_n,
        )?;
        size(
            "mn4",
            Polarity::Nmos,
            self.l_stage1,
            veff_n,
            i_in,
            np.vt0 + veff_n,
        )?;
        size(
            "mn6",
            Polarity::Nmos,
            self.l_stage2,
            veff_2,
            i_stage2,
            specs.output_mid(),
        )?;
        size(
            "mp7",
            Polarity::Pmos,
            self.l_stage2,
            veff_p7,
            i_stage2,
            vdd - specs.output_mid(),
        )?;

        // Bias voltages from the exact sized devices.
        let vgs_of = |name: &str, i: f64, vds_mag: f64| -> Result<f64, SizingError> {
            let d: &SizedDevice = &devices[name];
            let m = Mosfet::new(*tech.mos(d.polarity), d.w, d.l);
            let sgn = d.polarity.sign();
            vgs_for_current(&m, sgn * vds_mag, 0.0, i, vdd)
                .map_err(|e| SizingError::new(format!("{name}: {e}")))
        };
        let vp1 = vdd + vgs_of("mptail", i_tail, veff_tail + 0.2)?;
        let vp2 = vdd + vgs_of("mp7", i_stage2, vdd - specs.output_mid())?;

        Ok(TwoStageOta {
            devices,
            vp1,
            vp2,
            cc,
            i_tail,
            i_stage2,
            specs: *specs,
        })
    }
}

impl Topology for TwoStageOta {
    fn topology_name(&self) -> &'static str {
        "two_stage"
    }

    fn specs(&self) -> &OtaSpecs {
        &self.specs
    }

    fn netlist(&self, tech: &Technology, mode: &ParasiticMode, drive: InputDrive) -> Circuit {
        let bias = [("vbp1", "vp1", self.vp1), ("vbp2", "vp2", self.vp2)];
        let caps = [("cc", "x1", "out", self.cc)];
        build_netlist(self, &PINS, &bias, &caps, tech, mode, drive)
    }

    fn slew_estimate(&self) -> f64 {
        (self.i_tail / self.cc).min(self.i_stage2 / self.specs.c_load)
    }

    fn write_fingerprint(&self, h: &mut FnvHasher) {
        crate::eval::hash_common_fingerprint(h, &self.devices, &self.specs);
        for v in [self.vp1, self.vp2, self.cc, self.i_tail, self.i_stage2] {
            h.write_f64(v);
        }
    }

    fn devices(&self) -> &BTreeMap<String, SizedDevice> {
        &self.devices
    }

    fn layout_spec(&self) -> TopologyLayoutSpec {
        // Two paths from VDD to ground: the first-stage tail and the
        // second-stage branch.
        let i_in = self.i_tail / 2.0;
        let net_currents: BTreeMap<String, f64> = [
            ("vdd", self.i_tail + self.i_stage2),
            ("gnd", self.i_tail + self.i_stage2),
            ("tail", self.i_tail),
            ("x0", i_in),
            ("x1", i_in),
            ("out", self.i_stage2),
        ]
        .into_iter()
        .map(|(n, i)| (n.to_owned(), i))
        .collect();
        // The Miller capacitor is a netlist-only element today: the
        // layout tool places and routes transistors, so `cc` contributes
        // neither area nor routing parasitics to the feedback.
        let m = Modules::new(&PINS, &self.devices);
        TopologyLayoutSpec {
            cell_name: "two_stage_ota",
            modules: vec![
                // 0: input pair — shares the tail source net.
                m.group("pair", true, &["mp1", "mp2"]),
                // 1: tail current source.
                m.single("mptail"),
                // 2: first-stage NMOS mirror (mn3 is the diode).
                m.group("mirror", false, &["mn3", "mn4"]),
                // 3: second-stage common source.
                m.single("mn6"),
                // 4: second-stage current source.
                m.single("mp7"),
            ],
            // NMOS row at the bottom, PMOS row at the top.
            placement_rows: vec![vec![2, 3], vec![0, 1, 4]],
            net_currents,
        }
    }
}

impl TopologyPlan for TwoStagePlan {
    fn topology_name(&self) -> &'static str {
        "two_stage"
    }

    fn size_topology(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<Box<dyn Topology>, SizingError> {
        self.size(tech, specs, mode).map(|ota| Box::new(ota) as _)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate as measure;

    fn setup() -> (Technology, TwoStageOta) {
        let tech = Technology::cmos06();
        let specs = OtaSpecs::paper_example();
        let ota = TwoStagePlan::default()
            .size(&tech, &specs, &ParasiticMode::None)
            .unwrap();
        (tech, ota)
    }

    #[test]
    fn sizing_produces_all_devices() {
        let (_, ota) = setup();
        for Pins { name, .. } in PINS {
            assert!(ota.devices.contains_key(name), "missing {name}");
        }
        assert!(ota.cc > 0.0);
        assert!(
            ota.i_stage2 > ota.i_tail / 2.0,
            "second stage carries the gm6 burden"
        );
    }

    #[test]
    fn two_stage_meets_shape_specs() {
        let (tech, ota) = setup();
        let p = measure(&ota, &tech, &ParasiticMode::None).unwrap();
        // Two stages: more gain than the single-stage folded cascode.
        assert!(p.dc_gain_db > 60.0, "gain {:.1} dB", p.dc_gain_db);
        assert!(p.gbw > 30e6, "gbw {:.1} MHz", p.gbw / 1e6);
        assert!(p.phase_margin > 45.0, "pm {:.1}°", p.phase_margin);
        // Miller-loaded output: much lower output resistance than the
        // cascode OTA.
        assert!(
            p.output_resistance < 1e6,
            "rout {:.0} kΩ",
            p.output_resistance / 1e3
        );
    }

    #[test]
    fn supply_current_matches_hand_computed_branches() {
        let (_, ota) = setup();
        // Two paths from VDD to ground: the first-stage tail (splitting
        // into two equal i_tail/2 branches through the mirror) and the
        // second-stage branch through mp7/mn6. Nothing else conducts.
        let supply = ota.layout_spec().net_currents["vdd"];
        assert_eq!(supply, ota.i_tail + ota.i_stage2);
        let i_in = ota.i_tail / 2.0;
        assert_eq!(
            i_in + i_in + ota.i_stage2,
            supply,
            "branch currents must add up to the supply current"
        );
        assert!(ota.i_tail > 0.0 && ota.i_stage2 > 0.0);
    }

    #[test]
    fn netlist_is_solvable() {
        let (tech, ota) = setup();
        let c = ota.netlist(
            &tech,
            &ParasiticMode::None,
            InputDrive::Differential { dv: 0.0 },
        );
        let sol =
            losac_sim::dc::dc_operating_point(&c, &losac_sim::dc::DcOptions::default()).unwrap();
        for Pins { name, .. } in PINS {
            assert!(sol.mos_op(name).unwrap().id > 1e-7, "{name} off");
        }
    }
}
