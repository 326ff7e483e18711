//! Stack generation: interleaving the fingers of several matched
//! transistors into one row (after Malavasi & Pandini, "Optimum CMOS
//! Stack Generation with Analog Constraints").
//!
//! All devices in a stack share their **source** net (the common node of
//! a current mirror, the tail of a differential pair). Each device is
//! decomposed into:
//!
//! * **pair units** `S f D f S` — two fingers sharing a drain strip,
//!   automatically balanced in current direction (one finger conducts
//!   left→right, the other right→left), and
//! * at most one **single unit** `S f D` per device (odd finger counts),
//!   whose drain strip must be isolated: at a row end, or behind a dummy.
//!
//! Units are distributed symmetrically about the row centre so every
//! device's centroid lands as close to the common centre as its finger
//! parity allows; dummy fingers terminate the row ends (and isolate any
//! interior single units), exactly the discipline of the paper's Fig. 3.

use crate::row::{Finger, RowSpec};
use losac_tech::units::Nm;
use losac_tech::Polarity;
use std::collections::BTreeMap;
use std::fmt;

/// One matched device of a stack.
#[derive(Debug, Clone, PartialEq)]
pub struct StackDevice {
    /// Device name.
    pub name: String,
    /// Number of fingers (≥ 1). Device width = fingers × finger width.
    pub fingers: u32,
    /// Drain net.
    pub drain_net: String,
    /// Gate net.
    pub gate_net: String,
}

/// A stack specification.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSpec {
    /// Row/cell name.
    pub name: String,
    /// Polarity of all devices.
    pub polarity: Polarity,
    /// Channel width of each finger (nm).
    pub finger_w: Nm,
    /// Drawn gate length (nm).
    pub gate_l: Nm,
    /// The matched devices.
    pub devices: Vec<StackDevice>,
    /// The shared source net.
    pub source_net: String,
    /// Bulk net; dummy gates are tied to it.
    pub bulk_net: String,
    /// Dummy fingers at the row ends (recommended for matching).
    pub end_dummies: bool,
    /// Pair-unit arrangement style.
    pub style: StackStyle,
    /// DC current per net for electromigration sizing (A).
    pub net_currents: BTreeMap<String, f64>,
}

/// How pair units are interleaved along the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StackStyle {
    /// Mirror-symmetric about the row centre (common centroid in one
    /// dimension): `A B … B A`. Best matching; the default.
    #[default]
    CommonCentroid,
    /// Round-robin interleaving: `A B A B …`. Slightly worse centroid
    /// alignment, slightly shorter internal wiring.
    Interdigitated,
}

/// Stack planning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackError {
    message: String,
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stack generation failed: {}", self.message)
    }
}

impl std::error::Error for StackError {}

/// The planned finger pattern plus its matching-quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct StackPlan {
    /// Diffusion-strip nets (fingers + 1 entries).
    pub strip_nets: Vec<String>,
    /// Fingers in x order (devices and dummies).
    pub fingers: Vec<Finger>,
    /// Per-device centroid offset from the row centre, in gate pitches.
    pub centroid_offset: BTreeMap<String, f64>,
    /// Per-device |#left-conducting − #right-conducting| fingers.
    pub direction_imbalance: BTreeMap<String, u32>,
    /// Number of dummy fingers inserted.
    pub dummies: usize,
}

impl StackPlan {
    /// Human-readable pattern, e.g. `"- M3 M2 M3 M1 M3 M2 -"`
    /// (`-` = dummy).
    pub fn pattern(&self) -> String {
        self.fingers
            .iter()
            .map(|f| f.device.as_deref().unwrap_or("-"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A placeable unit: a two-finger pair or a one-finger single of a device
/// (identified by index into the spec's device list).
#[derive(Debug, Clone, Copy)]
struct Unit {
    device: usize,
}

/// Plan the finger interleaving for a stack.
///
/// # Errors
///
/// Returns [`StackError`] for an empty device list, duplicate names, or a
/// device with zero fingers.
pub fn plan_stack(spec: &StackSpec) -> Result<StackPlan, StackError> {
    if spec.devices.is_empty() {
        return Err(StackError {
            message: "a stack needs at least one device".into(),
        });
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in &spec.devices {
        if d.fingers == 0 {
            return Err(StackError {
                message: format!("device {} has zero fingers", d.name),
            });
        }
        if !seen.insert(&d.name) {
            return Err(StackError {
                message: format!("duplicate device name {}", d.name),
            });
        }
    }

    // Decompose into units; biggest devices first so they wrap the
    // outside and small devices land near the centre.
    let mut order: Vec<usize> = (0..spec.devices.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spec.devices[i].fingers));

    let mut lefts: Vec<Unit> = Vec::new();
    let mut rights: Vec<Unit> = Vec::new();
    let mut singles: Vec<Unit> = Vec::new();
    match spec.style {
        StackStyle::CommonCentroid => {
            for &i in &order {
                let d = &spec.devices[i];
                for k in 0..(d.fingers / 2) {
                    // Alternate the device's own pairs left/right for
                    // symmetry.
                    if k % 2 == 0 {
                        lefts.push(Unit { device: i });
                    } else {
                        rights.push(Unit { device: i });
                    }
                }
                if d.fingers % 2 == 1 {
                    singles.push(Unit { device: i });
                }
            }
            // Keep the two halves the same length where possible: move the
            // imbalance to the right half (innermost position).
            while lefts.len() > rights.len() + 1 {
                rights.push(lefts.pop().expect("nonempty"));
            }
        }
        StackStyle::Interdigitated => {
            // Round-robin the devices' pair units: A B A B …, all emitted
            // on the left side so the sequence reads in round-robin order.
            let mut remaining: Vec<(usize, u32)> = spec
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| (i, d.fingers / 2))
                .collect();
            loop {
                let mut any = false;
                for (i, left) in remaining.iter_mut() {
                    if *left > 0 {
                        lefts.push(Unit { device: *i });
                        *left -= 1;
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
            for (i, d) in spec.devices.iter().enumerate() {
                if d.fingers % 2 == 1 {
                    singles.push(Unit { device: i });
                }
            }
        }
    }

    // Walk the units emitting strips and fingers. Pairs surround the
    // centre; singles sit in the middle, fused two-by-two around a shared
    // isolation dummy (S f₁ D₁ [dum] D₂ f₂ S), a lone odd single keeping
    // its own dummy (S f D [dum] S).
    let s = &spec.source_net;
    let dummy_finger = || Finger {
        gate_net: format!("{}_dum", spec.bulk_net),
        device: None,
        flipped: false,
    };
    let mut strips: Vec<String> = vec![s.clone()];
    let mut fingers: Vec<Finger> = Vec::new();
    let emit_pair = |strips: &mut Vec<String>, fingers: &mut Vec<Finger>, i: usize| {
        let d = &spec.devices[i];
        fingers.push(Finger {
            gate_net: d.gate_net.clone(),
            device: Some(d.name.clone()),
            flipped: false,
        });
        strips.push(d.drain_net.clone());
        fingers.push(Finger {
            gate_net: d.gate_net.clone(),
            device: Some(d.name.clone()),
            flipped: true,
        });
        strips.push(s.clone());
    };
    for u in &lefts {
        emit_pair(&mut strips, &mut fingers, u.device);
    }
    // Centre block: singles fused around dummies.
    let mut it = singles.iter();
    while let Some(first) = it.next() {
        let d1 = &spec.devices[first.device];
        fingers.push(Finger {
            gate_net: d1.gate_net.clone(),
            device: Some(d1.name.clone()),
            flipped: false,
        });
        strips.push(d1.drain_net.clone());
        fingers.push(dummy_finger());
        if let Some(second) = it.next() {
            let d2 = &spec.devices[second.device];
            strips.push(d2.drain_net.clone());
            fingers.push(Finger {
                gate_net: d2.gate_net.clone(),
                device: Some(d2.name.clone()),
                flipped: true,
            });
            strips.push(s.clone());
        } else {
            strips.push(s.clone());
        }
    }
    for u in rights.iter().rev() {
        emit_pair(&mut strips, &mut fingers, u.device);
    }

    // End dummies: duplicate the outermost strips outward.
    if spec.end_dummies {
        let first = strips.first().expect("nonempty").clone();
        let last = strips.last().expect("nonempty").clone();
        strips.insert(0, first);
        fingers.insert(0, dummy_finger());
        strips.push(last);
        fingers.push(dummy_finger());
    }

    // Metrics.
    let n = fingers.len() as f64;
    let centre = (n - 1.0) / 2.0;
    let mut centroid_offset = BTreeMap::new();
    let mut direction_imbalance = BTreeMap::new();
    for d in &spec.devices {
        let positions: Vec<usize> = fingers
            .iter()
            .enumerate()
            .filter(|(_, f)| f.device.as_deref() == Some(d.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        let centroid = positions.iter().map(|&p| p as f64).sum::<f64>() / positions.len() as f64;
        centroid_offset.insert(d.name.clone(), centroid - centre);
        let flipped = fingers
            .iter()
            .filter(|f| f.device.as_deref() == Some(d.name.as_str()) && f.flipped)
            .count() as i64;
        let normal = positions.len() as i64 - flipped;
        direction_imbalance.insert(d.name.clone(), (flipped - normal).unsigned_abs() as u32);
    }
    let dummies = fingers.iter().filter(|f| f.device.is_none()).count();

    Ok(StackPlan {
        strip_nets: strips,
        fingers,
        centroid_offset,
        direction_imbalance,
        dummies,
    })
}

/// Turn a planned stack into a [`RowSpec`] ready for
/// [`crate::row::build_row`].
pub fn stack_row_spec(spec: &StackSpec, plan: &StackPlan) -> RowSpec {
    RowSpec {
        name: spec.name.clone(),
        polarity: spec.polarity,
        finger_w: spec.finger_w,
        gate_l: spec.gate_l,
        strip_nets: plan.strip_nets.clone(),
        fingers: plan.fingers.clone(),
        bulk_net: spec.bulk_net.clone(),
        net_currents: spec.net_currents.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::build_row;
    use losac_tech::units::um;
    use losac_tech::Technology;

    /// The paper's Fig. 3 mirror: M1:M2:M3 = 1:3:6.
    fn fig3_spec() -> StackSpec {
        let mk = |name: &str, fingers: u32| StackDevice {
            name: name.into(),
            fingers,
            drain_net: format!("d_{name}"),
            gate_net: "g".into(),
        };
        let mut net_currents = BTreeMap::new();
        net_currents.insert("s".to_owned(), 1.0e-3);
        net_currents.insert("d_m1".to_owned(), 0.1e-3);
        net_currents.insert("d_m2".to_owned(), 0.3e-3);
        net_currents.insert("d_m3".to_owned(), 0.6e-3);
        StackSpec {
            name: "mirror".into(),
            polarity: Polarity::Nmos,
            finger_w: um(4.0),
            gate_l: um(2.0),
            devices: vec![mk("m1", 1), mk("m2", 3), mk("m3", 6)],
            source_net: "s".into(),
            bulk_net: "gnd".into(),
            end_dummies: true,
            style: StackStyle::default(),
            net_currents,
        }
    }

    #[test]
    fn fig3_pattern_properties() {
        let spec = fig3_spec();
        let plan = plan_stack(&spec).unwrap();
        // Finger conservation: 1 + 3 + 6 device fingers.
        let device_fingers = plan.fingers.iter().filter(|f| f.device.is_some()).count();
        assert_eq!(device_fingers, 10);
        // Strip/finger structural invariant.
        assert_eq!(plan.strip_nets.len(), plan.fingers.len() + 1);
        // Dummies: 2 end dummies plus 1 isolating the fused M2/M1 singles
        // in the centre.
        assert_eq!(plan.dummies, 3, "pattern: {}", plan.pattern());
        // Ends are dummies.
        assert!(plan.fingers.first().unwrap().device.is_none());
        assert!(plan.fingers.last().unwrap().device.is_none());
    }

    #[test]
    fn fig3_centroids_near_centre() {
        let plan = plan_stack(&fig3_spec()).unwrap();
        for (dev, off) in &plan.centroid_offset {
            assert!(
                off.abs() <= 1.5,
                "{dev} centroid offset {off} gate pitches in {}",
                plan.pattern()
            );
        }
    }

    #[test]
    fn fig3_current_direction_balanced() {
        let plan = plan_stack(&fig3_spec()).unwrap();
        for (dev, imb) in &plan.direction_imbalance {
            assert!(*imb <= 1, "{dev} direction imbalance {imb}");
        }
        // Even-fingered devices balance exactly.
        assert_eq!(plan.direction_imbalance["m3"], 0);
    }

    #[test]
    fn no_drain_strip_shared_between_devices() {
        let spec = fig3_spec();
        let plan = plan_stack(&spec).unwrap();
        // Every drain strip must be adjacent only to fingers of its own
        // device (or dummies).
        for (i, net) in plan.strip_nets.iter().enumerate() {
            if let Some(owner) = net.strip_prefix("d_") {
                for fi in [i.checked_sub(1), (i < plan.fingers.len()).then_some(i)]
                    .into_iter()
                    .flatten()
                {
                    let f = &plan.fingers[fi];
                    if let Some(dev) = &f.device {
                        assert_eq!(dev, owner, "drain strip {net} touched by {dev}");
                    }
                }
            }
        }
    }

    #[test]
    fn fig3_stack_builds_into_geometry() {
        let spec = fig3_spec();
        let plan = plan_stack(&spec).unwrap();
        let rowspec = stack_row_spec(&spec, &plan);
        let row = build_row(&Technology::cmos06(), &rowspec).unwrap();
        assert!(row.em_clean, "EM-sized wires and contacts");
        for net in ["s", "d_m1", "d_m2", "d_m3", "g"] {
            assert!(row.cell.find_port(net).is_some(), "port {net}");
        }
    }

    #[test]
    fn differential_pair_pattern() {
        // Two equal devices, even fingers: pure common-centroid ABBA-ish.
        let mk = |name: &str| StackDevice {
            name: name.into(),
            fingers: 4,
            drain_net: format!("d{name}"),
            gate_net: format!("g{name}"),
        };
        let spec = StackSpec {
            name: "pair".into(),
            polarity: Polarity::Pmos,
            finger_w: um(5.0),
            gate_l: um(1.0),
            devices: vec![mk("a"), mk("b")],
            source_net: "tail".into(),
            bulk_net: "vdd".into(),
            end_dummies: true,
            style: StackStyle::default(),
            net_currents: BTreeMap::new(),
        };
        let plan = plan_stack(&spec).unwrap();
        // Both centroids exactly centred, directions balanced.
        assert!(
            plan.centroid_offset["a"].abs() < 1e-9,
            "{:?}",
            plan.centroid_offset
        );
        assert!(plan.centroid_offset["b"].abs() < 1e-9);
        assert_eq!(plan.direction_imbalance["a"], 0);
        assert_eq!(plan.direction_imbalance["b"], 0);
        // And it builds (two gate nets + dummy net = 3 poly bands).
        let row = build_row(&Technology::cmos06(), &stack_row_spec(&spec, &plan)).unwrap();
        assert!(row.cell.find_port("ga").is_some());
        assert!(row.cell.find_port("gb").is_some());
    }

    #[test]
    fn single_device_stack_reduces_to_fold_pattern() {
        let spec = StackSpec {
            name: "m".into(),
            polarity: Polarity::Nmos,
            finger_w: um(3.0),
            gate_l: um(0.6),
            devices: vec![StackDevice {
                name: "m".into(),
                fingers: 4,
                drain_net: "d".into(),
                gate_net: "g".into(),
            }],
            source_net: "s".into(),
            bulk_net: "gnd".into(),
            end_dummies: false,
            style: StackStyle::default(),
            net_currents: BTreeMap::new(),
        };
        let plan = plan_stack(&spec).unwrap();
        // S d S d S with drains internal: the even/internal F = 1/2 case.
        assert_eq!(plan.strip_nets, vec!["s", "d", "s", "d", "s"]);
        assert_eq!(plan.dummies, 0);
    }

    #[test]
    fn empty_stack_rejected() {
        let mut spec = fig3_spec();
        spec.devices.clear();
        assert!(plan_stack(&spec).is_err());
    }

    #[test]
    fn zero_finger_device_rejected() {
        let mut spec = fig3_spec();
        spec.devices[0].fingers = 0;
        assert!(plan_stack(&spec).is_err());
    }

    #[test]
    fn duplicate_device_rejected() {
        let mut spec = fig3_spec();
        let dup = spec.devices[0].clone();
        spec.devices.push(dup);
        assert!(plan_stack(&spec).is_err());
    }

    #[test]
    fn three_singles_need_inner_dummy() {
        let mk = |name: &str, fingers: u32| StackDevice {
            name: name.into(),
            fingers,
            drain_net: format!("d{name}"),
            gate_net: "g".into(),
        };
        let spec = StackSpec {
            name: "s3".into(),
            polarity: Polarity::Nmos,
            finger_w: um(4.0),
            gate_l: um(1.0),
            devices: vec![mk("a", 1), mk("b", 1), mk("c", 1)],
            source_net: "s".into(),
            bulk_net: "gnd".into(),
            end_dummies: false,
            style: StackStyle::default(),
            net_currents: BTreeMap::new(),
        };
        let plan = plan_stack(&spec).unwrap();
        // Two singles fuse around one dummy; the third needs its own.
        assert_eq!(plan.dummies, 2, "pattern: {}", plan.pattern());
        // Still no cross-device drain sharing.
        assert_eq!(plan.strip_nets.len(), plan.fingers.len() + 1);
    }
}
