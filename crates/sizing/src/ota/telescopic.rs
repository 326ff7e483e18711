//! A telescopic-cascode OTA — the third topology, composed almost
//! entirely from the building-block routines in [`crate::blocks`], to
//! demonstrate how little code a new topology costs once the hierarchy
//! exists (the paper's §4 claim about COMDIAC).
//!
//! Topology (PMOS input, all devices stacked in two branches):
//!
//! ```text
//!  VDD ──────┬─────────
//!          mptail (vp1)
//!           tail
//!   vinp ──┤mp1    mp2├── vinn
//!           x1│      │x2
//!          mp1c     mp2c   (gates vcp)
//!           y1│      │y2 = out
//!          mn1c     mn2c   (gates vcn)
//!           z1│      │z2
//!          mn3┌──y1──┐mn4  (mirror, gates at y1)
//!  GND ───────┴──────┴────
//! ```
//!
//! Compared with the folded cascode the telescopic stack reuses the
//! input-branch current (half the power for the same gm) at the cost of
//! output swing — the example below therefore runs with a narrower
//! output-range specification than the paper's folded-cascode example.

use super::{build_netlist, parasitic_on, Modules, Pins};
use crate::blocks::{gate_bias_for, size_device, size_diff_pair, size_mirror};
use crate::eval::{FnvHasher, InputDrive};
use crate::feedback::ParasiticMode;
use crate::ota::folded_cascode::{SizedDevice, SizingError};
use crate::specs::OtaSpecs;
use crate::topology::{Topology, TopologyLayoutSpec, TopologyPlan};
use losac_sim::netlist::Circuit;
use losac_tech::{Polarity, Technology};
use std::collections::BTreeMap;

/// The transistors and their drain, gate, source and bulk nets, in
/// netlist (stamp) order.
///
/// vinp drives the diode leg of the mirror: raising vinp starves the y1
/// diode, the mirror sinks less while the vinn leg pushes more, and out
/// rises. So vinp is the non-inverting input, as the unity-buffer bench
/// requires.
pub const PINS: [Pins; 9] = [
    Pins::new("mptail", "tail", "vp1", "vdd", "vdd"),
    Pins::new("mp1", "x1", "vinp", "tail", "vdd"),
    Pins::new("mp2", "x2", "vinn", "tail", "vdd"),
    Pins::new("mp1c", "y1", "vcp", "x1", "vdd"),
    Pins::new("mp2c", "out", "vcp", "x2", "vdd"),
    Pins::new("mn1c", "y1", "vcn", "z1", "gnd"),
    Pins::new("mn2c", "out", "vcn", "z2", "gnd"),
    Pins::new("mn3", "z1", "y1", "gnd", "gnd"),
    Pins::new("mn4", "z2", "y1", "gnd", "gnd"),
];

/// A sized telescopic-cascode OTA.
#[derive(Debug, Clone)]
pub struct TelescopicOta {
    /// Devices by name.
    pub devices: BTreeMap<String, SizedDevice>,
    /// Tail gate bias (V).
    pub vp1: f64,
    /// PMOS cascode gate bias (V).
    pub vcp: f64,
    /// NMOS cascode gate bias (V).
    pub vcn: f64,
    /// Tail current (A).
    pub i_tail: f64,
    /// Specs this instance was sized for.
    pub specs: OtaSpecs,
}

/// Plan knobs for the telescopic OTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelescopicPlan {
    /// Channel length of the input pair (m).
    pub l_in: f64,
    /// Channel length of the cascodes and mirror (m).
    pub l_casc: f64,
    /// Saturation margin (V).
    pub sat_margin: f64,
}

impl Default for TelescopicPlan {
    fn default() -> Self {
        Self {
            l_in: 1.0e-6,
            l_casc: 0.8e-6,
            sat_margin: 0.1,
        }
    }
}

impl TelescopicPlan {
    /// Size the telescopic OTA.
    ///
    /// # Errors
    ///
    /// Returns [`SizingError`] for invalid specs (a telescopic stack
    /// needs a narrow output range: five devices share the supply) or
    /// unreachable device targets.
    pub fn size(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<TelescopicOta, SizingError> {
        let _span =
            losac_obs::span_with("sizing.size", vec![losac_obs::f("topology", "telescopic")]);
        specs.validate().map_err(SizingError::new)?;
        let vdd = specs.vdd;
        let pp = &tech.pmos;

        // Headroom bookkeeping: tail + input + P-cascode above the
        // output, N-cascode + mirror below.
        let veff_n = (specs.output_range.0 / 2.0 - 0.02).clamp(0.08, 0.5);
        let veff_p = 0.25;
        // The output rides *inside* the input branch: its ceiling is set
        // by the input common mode, not by the supply —
        //   out_max ≤ CM + |VTP| − Veff_p − 2·margin.
        let cm_bias = specs.input_cm_bias();
        let out_ceiling = cm_bias + pp.vt0 - veff_p - 2.0 * self.sat_margin;
        if specs.output_range.1 > out_ceiling {
            return Err(SizingError::new(format!(
                "telescopic output ceiling is {out_ceiling:.2} V at CM = {cm_bias:.2} V, \
                 below the requested {:.2} V (use the folded cascode for wide swings)",
                specs.output_range.1
            )));
        }
        let headroom = vdd - pp.vt0 - specs.input_cm_range.1;
        if headroom < 0.15 {
            return Err(SizingError::new(
                "input CM range incompatible with a PMOS input pair",
            ));
        }
        let veff_in = (0.4 * headroom).clamp(0.10, 0.45);
        let veff_tail = (headroom - veff_in - 0.05).clamp(0.10, 0.8);

        // gm from GBW and load — the load includes whatever routing,
        // coupling and well capacitance the layout feedback lumps onto
        // the output net, which is what closes the sizing↔layout loop;
        // all branch currents equal the input current (that is the
        // telescopic's efficiency).
        let c_out = specs.c_load + parasitic_on(mode, "out");
        let gm1 = 2.0 * std::f64::consts::PI * specs.gbw * c_out * 1.05;
        let (input_dev, i_in) = size_diff_pair(tech, Polarity::Pmos, self.l_in, veff_in, gm1)?;
        let i_tail = 2.0 * i_in;

        let mut devices = BTreeMap::new();
        devices.insert("mp1".to_owned(), input_dev);
        devices.insert("mp2".to_owned(), input_dev);
        devices.insert(
            "mptail".to_owned(),
            size_device(
                "mptail",
                tech,
                Polarity::Pmos,
                self.l_in,
                veff_tail,
                i_tail,
                veff_tail + 0.2,
            )?,
        );
        let pc = size_device(
            "mp1c",
            tech,
            Polarity::Pmos,
            self.l_casc,
            veff_p,
            i_in,
            veff_p + self.sat_margin,
        )?;
        devices.insert("mp1c".to_owned(), pc);
        devices.insert("mp2c".to_owned(), pc);
        let nc = size_device(
            "mn1c",
            tech,
            Polarity::Nmos,
            self.l_casc,
            veff_n,
            i_in,
            veff_n + self.sat_margin,
        )?;
        devices.insert("mn1c".to_owned(), nc);
        devices.insert("mn2c".to_owned(), nc);
        let mirror = size_mirror(tech, Polarity::Nmos, self.l_casc, veff_n, i_in, &[1.0])?;
        devices.insert("mn3".to_owned(), mirror[0]);
        devices.insert("mn4".to_owned(), mirror[1]);

        // Bias chain.
        let vp1 = gate_bias_for(tech, &devices["mptail"], i_tail, vdd, veff_tail + 0.2)?;
        // NMOS cascode sources sit one veff+margin above ground.
        let vz = veff_n + self.sat_margin;
        let vcn = gate_bias_for(tech, &devices["mn1c"], i_in, vz, veff_n + self.sat_margin)?;
        // PMOS cascode sources (the input drains) sit one saturation
        // below the input sources, which the common mode pins:
        // x = CM + VSG_in − (Veff_in + margin) ≈ CM + |VTP| − margin.
        let vx = specs.input_cm_bias() + pp.vt0 - self.sat_margin;
        let vcp = gate_bias_for(tech, &devices["mp1c"], i_in, vx, veff_p + self.sat_margin)?;

        Ok(TelescopicOta {
            devices,
            vp1,
            vcp,
            vcn,
            i_tail,
            specs: *specs,
        })
    }
}

impl Topology for TelescopicOta {
    fn topology_name(&self) -> &'static str {
        "telescopic"
    }

    fn specs(&self) -> &OtaSpecs {
        &self.specs
    }

    fn netlist(&self, tech: &Technology, mode: &ParasiticMode, drive: InputDrive) -> Circuit {
        let bias = [
            ("vbp1", "vp1", self.vp1),
            ("vbcp", "vcp", self.vcp),
            ("vbcn", "vcn", self.vcn),
        ];
        build_netlist(self, &PINS, &bias, &[], tech, mode, drive)
    }

    fn slew_estimate(&self) -> f64 {
        self.i_tail / self.specs.c_load.max(1e-15)
    }

    fn write_fingerprint(&self, h: &mut FnvHasher) {
        crate::eval::hash_common_fingerprint(h, &self.devices, &self.specs);
        for v in [self.vp1, self.vcp, self.vcn, self.i_tail] {
            h.write_f64(v);
        }
    }

    fn devices(&self) -> &BTreeMap<String, SizedDevice> {
        &self.devices
    }

    fn layout_spec(&self) -> TopologyLayoutSpec {
        // One tail current feeds both telescopic branches; there is no
        // separate cascode branch.
        let i_in = self.i_tail / 2.0;
        let net_currents: BTreeMap<String, f64> = [
            ("vdd", self.i_tail),
            ("gnd", self.i_tail),
            ("tail", self.i_tail),
            ("x1", i_in),
            ("x2", i_in),
            ("y1", i_in),
            ("z1", i_in),
            ("z2", i_in),
            ("out", i_in),
        ]
        .into_iter()
        .map(|(n, i)| (n.to_owned(), i))
        .collect();
        let m = Modules::new(&PINS, &self.devices);
        TopologyLayoutSpec {
            cell_name: "telescopic_ota",
            modules: vec![
                // 0: input pair — shares the tail source net.
                m.group("pair", true, &["mp1", "mp2"]),
                // 1: tail current source.
                m.single("mptail"),
                // 2: NMOS mirror — shares the ground source net.
                m.group("mirror", false, &["mn3", "mn4"]),
                // 3–6: the four cascodes, each with a distinct source.
                m.single("mn1c"),
                m.single("mn2c"),
                m.single("mp1c"),
                m.single("mp2c"),
            ],
            // NMOS rows at the bottom, PMOS rows at the top.
            placement_rows: vec![vec![3, 2, 4], vec![5, 6], vec![0, 1]],
            net_currents,
        }
    }
}

impl TopologyPlan for TelescopicPlan {
    fn topology_name(&self) -> &'static str {
        "telescopic"
    }

    fn size_topology(
        &self,
        tech: &Technology,
        specs: &OtaSpecs,
        mode: &ParasiticMode,
    ) -> Result<Box<dyn Topology>, SizingError> {
        self.size(tech, specs, mode).map(|ota| Box::new(ota) as _)
    }

    fn example_specs(&self) -> OtaSpecs {
        telescopic_example_specs()
    }
}

/// The narrower-swing specification the telescopic example runs with.
pub fn telescopic_example_specs() -> OtaSpecs {
    OtaSpecs {
        // The telescopic stack trades swing for power: raise the common
        // mode and narrow the output range accordingly.
        input_cm_range: (0.8, 1.3),
        output_range: (0.5, 1.4),
        ..OtaSpecs::paper_example()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate as measure;

    fn setup() -> (Technology, TelescopicOta) {
        let tech = Technology::cmos06();
        let ota = TelescopicPlan::default()
            .size(&tech, &telescopic_example_specs(), &ParasiticMode::None)
            .unwrap();
        (tech, ota)
    }

    #[test]
    fn sizing_produces_all_devices() {
        let (_, ota) = setup();
        for Pins { name, .. } in PINS {
            assert!(ota.devices.contains_key(name), "missing {name}");
        }
    }

    #[test]
    fn telescopic_uses_half_the_folded_cascode_current() {
        let tech = Technology::cmos06();
        let specs = telescopic_example_specs();
        let tele = TelescopicPlan::default()
            .size(&tech, &specs, &ParasiticMode::None)
            .unwrap();
        let fc = crate::ota::folded_cascode::FoldedCascodePlan::default()
            .size(&tech, &specs, &ParasiticMode::None)
            .unwrap();
        // Same gm requirement, but no separate cascode branch: the total
        // supply current is clearly smaller.
        let i_tele = tele.i_tail;
        let i_fc = fc.currents.i_tail + 2.0 * fc.currents.i_casc;
        assert!(
            i_tele < 0.8 * i_fc,
            "telescopic {:.0} µA vs folded cascode {:.0} µA",
            i_tele * 1e6,
            i_fc * 1e6
        );
    }

    #[test]
    fn telescopic_meets_shape_specs() {
        let (tech, ota) = setup();
        let p = measure(&ota, &tech, &ParasiticMode::None).unwrap();
        assert!(p.dc_gain_db > 55.0, "gain {:.1} dB", p.dc_gain_db);
        assert!(p.gbw > 40e6, "gbw {:.1} MHz", p.gbw / 1e6);
        assert!(p.phase_margin > 55.0, "pm {:.1}°", p.phase_margin);
        assert!(
            p.power < 2e-3,
            "telescopic should be frugal: {:.2} mW",
            p.power * 1e3
        );
    }

    #[test]
    fn supply_current_matches_hand_computed_branches() {
        let (_, ota) = setup();
        // One tail current splits into two equal branch currents that
        // flow straight down both telescopic stacks to ground; there is
        // no other path from the supply. Hence supply = i_tail exactly,
        // and each branch carries i_tail / 2.
        let supply = ota.layout_spec().net_currents["vdd"];
        assert_eq!(supply, ota.i_tail);
        let i_in = ota.i_tail / 2.0;
        assert_eq!(i_in + i_in, supply);
        assert!(ota.i_tail > 0.0);
    }

    #[test]
    fn wide_swing_request_rejected() {
        let tech = Technology::cmos06();
        // The paper's folded-cascode output range is too wide for a
        // telescopic stack; the plan must say so rather than mis-size.
        let err =
            TelescopicPlan::default().size(&tech, &OtaSpecs::paper_example(), &ParasiticMode::None);
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("folded cascode"));
    }
}
