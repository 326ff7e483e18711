//! Circuit netlist representation.
//!
//! A [`Circuit`] is a flat list of elements over named nodes. Node `"0"`
//! (alias `"gnd"`) is ground. Builder methods create nodes on first use:
//!
//! ```
//! use losac_sim::netlist::Circuit;
//!
//! let mut c = Circuit::new();
//! c.vsource("vdd", "vdd", "0", 3.3);
//! c.resistor("r1", "vdd", "out", 10e3);
//! c.resistor("r2", "out", "0", 10e3);
//! assert_eq!(c.num_nodes(), 3); // 0, vdd, out
//! ```
//!
//! MOS instances carry their junction-capacitance coefficients and
//! diffusion geometry, so the simulator never needs the technology object:
//! the netlist builders (sizing / extraction) bake everything in.

pub use losac_device::DiffGeom;
use losac_device::Mosfet;
use losac_tech::JunctionCaps;
use std::collections::BTreeSet;
use std::fmt;

/// Node index into a circuit. Ground is index 0.
pub type NodeId = usize;

/// The ground node.
pub const GROUND: NodeId = 0;

/// Time-domain waveform of an independent voltage source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waveform {
    /// Constant at the DC value.
    Dc,
    /// Step from the DC value to `level` at time `at` (seconds), with a
    /// linear ramp of `rise` seconds.
    Step {
        /// Target level after the step (V).
        level: f64,
        /// Step instant (s).
        at: f64,
        /// Rise time (s); 0 snaps within one timestep.
        rise: f64,
    },
    /// Symmetric pulse train between the DC value and `level`.
    Pulse {
        /// High level (V).
        level: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Pulse width (s).
        width: f64,
        /// Period (s).
        period: f64,
        /// Edge time (s).
        edge: f64,
    },
}

impl Waveform {
    /// Source value at time `t`, given the DC baseline.
    pub fn value(&self, dc: f64, t: f64) -> f64 {
        match *self {
            Waveform::Dc => dc,
            Waveform::Step { level, at, rise } => {
                if t <= at {
                    dc
                } else if rise > 0.0 && t < at + rise {
                    dc + (level - dc) * (t - at) / rise
                } else {
                    level
                }
            }
            Waveform::Pulse {
                level,
                delay,
                width,
                period,
                edge,
            } => {
                if t < delay || period <= 0.0 {
                    return dc;
                }
                let tp = (t - delay) % period;
                let e = edge.max(1e-15);
                if tp < e {
                    dc + (level - dc) * tp / e
                } else if tp < e + width {
                    level
                } else if tp < 2.0 * e + width {
                    level + (dc - level) * (tp - e - width) / e
                } else {
                    dc
                }
            }
        }
    }
}

/// Independent voltage source.
#[derive(Debug, Clone, PartialEq)]
pub struct Vsource {
    /// Instance name.
    pub name: String,
    /// Positive terminal.
    pub pos: NodeId,
    /// Negative terminal.
    pub neg: NodeId,
    /// DC value (V).
    pub dc: f64,
    /// AC magnitude (V, signed — a negative value means 180° phase, which
    /// is how differential drive is expressed).
    pub ac: f64,
    /// Transient waveform.
    pub waveform: Waveform,
}

/// Independent current source: `dc` amperes flow from `from`, through the
/// source, into `to` (i.e. the source removes current from `from` and
/// delivers it to `to`).
#[derive(Debug, Clone, PartialEq)]
pub struct Isource {
    /// Instance name.
    pub name: String,
    /// Node the current is drawn from.
    pub from: NodeId,
    /// Node the current is delivered to.
    pub to: NodeId,
    /// DC value (A).
    pub dc: f64,
    /// AC magnitude (A, signed).
    pub ac: f64,
}

/// A MOS transistor instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MosInstance {
    /// Instance name.
    pub name: String,
    /// Drain node.
    pub d: NodeId,
    /// Gate node.
    pub g: NodeId,
    /// Source node.
    pub s: NodeId,
    /// Bulk node.
    pub b: NodeId,
    /// The sized device (model card + W/L).
    pub dev: Mosfet,
    /// Junction coefficients for the source/drain diffusions.
    pub junction: JunctionCaps,
    /// Drain diffusion geometry.
    pub drain_geom: DiffGeom,
    /// Source diffusion geometry.
    pub source_geom: DiffGeom,
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor.
    Resistor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance (Ω), strictly positive.
        ohms: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Instance name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance (F), non-negative.
        farads: f64,
    },
    /// Independent voltage source.
    Vsource(Vsource),
    /// Independent current source.
    Isource(Isource),
    /// MOS transistor.
    Mos(MosInstance),
}

impl Element {
    /// Instance name of any element.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. } | Element::Capacitor { name, .. } => name,
            Element::Vsource(v) => &v.name,
            Element::Isource(i) => &i.name,
            Element::Mos(m) => &m.name,
        }
    }
}

/// A flat netlist.
#[derive(Debug, Clone)]
pub struct Circuit {
    node_names: Vec<String>,
    // Looked up by name only, never iterated, so hashing is safe here.
    #[allow(clippy::disallowed_types)]
    node_ids: std::collections::HashMap<String, NodeId>,
    elements: Vec<Element>,
    /// Bad element values recorded at insertion and surfaced by
    /// [`Circuit::validate`]. Builders stay infallible (chainable), but a
    /// netlist carrying a non-finite parasitic no longer panics a batch
    /// worker — it fails its first analysis with a typed error instead.
    value_errors: Vec<String>,
    /// Analysis temperature (K); `None` means the nominal
    /// [`losac_tech::units::T_NOMINAL`]. Stamped into the device model
    /// and the thermal-noise sources by every analysis on this circuit.
    temp_k: Option<f64>,
}

impl Default for Circuit {
    /// [`Circuit::new`]: the ground node alone.
    fn default() -> Self {
        Self::new()
    }
}

impl Circuit {
    /// An empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            node_names: vec!["0".to_owned()],
            node_ids: [("0".to_owned(), GROUND), ("gnd".to_owned(), GROUND)].into(),
            elements: Vec::new(),
            value_errors: Vec::new(),
            temp_k: None,
        }
    }

    /// Get-or-create a node by name. `"0"` and `"gnd"` are ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_ids.get(name) {
            return id;
        }
        let id = self.node_names.len();
        self.node_names.push(name.to_owned());
        self.node_ids.insert(name.to_owned(), id);
        id
    }

    /// Look up an existing node.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_ids.get(name).copied()
    }

    /// Name of a node id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The analysis temperature (K) every analysis on this circuit
    /// evaluates the device model and thermal noise at. Defaults to
    /// [`losac_tech::units::T_NOMINAL`].
    pub fn temperature(&self) -> f64 {
        self.temp_k.unwrap_or(losac_tech::units::T_NOMINAL)
    }

    /// Set the analysis temperature (K). A non-finite or non-positive
    /// value is recorded as a value error and surfaced by
    /// [`Circuit::validate`], like any bad element value.
    pub fn set_temperature(&mut self, temp_k: f64) -> &mut Self {
        if !(temp_k.is_finite() && temp_k > 0.0) {
            self.value_errors
                .push(format!("temperature: bad value {temp_k} K"));
            return self;
        }
        self.temp_k = Some(temp_k);
        self
    }

    /// Visit every MOS instance mutably as `(instance name, device)` —
    /// the hook the scenario machinery uses to apply per-device mismatch
    /// perturbations after a netlist is built, without the builders
    /// having to know about scenarios.
    pub fn for_each_mos_mut(&mut self, mut f: impl FnMut(&str, &mut Mosfet)) {
        for e in &mut self.elements {
            if let Element::Mos(m) = e {
                f(&m.name, &mut m.dev);
            }
        }
    }

    /// Number of independent voltage sources (each adds one MNA branch
    /// unknown).
    pub fn num_vsources(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Vsource(_)))
            .count()
    }

    /// Add a resistor.
    ///
    /// A non-finite or non-positive `ohms` is recorded as a value error
    /// and reported by [`Circuit::validate`] (and therefore by the first
    /// analysis run on this circuit) instead of panicking here.
    pub fn resistor(&mut self, name: &str, a: &str, b: &str, ohms: f64) -> &mut Self {
        if !(ohms.is_finite() && ohms > 0.0) {
            self.value_errors
                .push(format!("resistor {name}: bad value {ohms}"));
        }
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Resistor {
            name: name.to_owned(),
            a,
            b,
            ohms,
        });
        self
    }

    /// Add a capacitor.
    ///
    /// A non-finite or negative `farads` is recorded as a value error and
    /// reported by [`Circuit::validate`] (and therefore by the first
    /// analysis run on this circuit) instead of panicking here.
    pub fn capacitor(&mut self, name: &str, a: &str, b: &str, farads: f64) -> &mut Self {
        if !(farads.is_finite() && farads >= 0.0) {
            self.value_errors
                .push(format!("capacitor {name}: bad value {farads}"));
        }
        let (a, b) = (self.node(a), self.node(b));
        self.elements.push(Element::Capacitor {
            name: name.to_owned(),
            a,
            b,
            farads,
        });
        self
    }

    /// Add a DC voltage source.
    pub fn vsource(&mut self, name: &str, pos: &str, neg: &str, dc: f64) -> &mut Self {
        let (pos, neg) = (self.node(pos), self.node(neg));
        self.elements.push(Element::Vsource(Vsource {
            name: name.to_owned(),
            pos,
            neg,
            dc,
            ac: 0.0,
            waveform: Waveform::Dc,
        }));
        self
    }

    /// Add a voltage source with DC and AC values.
    pub fn vsource_ac(&mut self, name: &str, pos: &str, neg: &str, dc: f64, ac: f64) -> &mut Self {
        let (pos, neg) = (self.node(pos), self.node(neg));
        self.elements.push(Element::Vsource(Vsource {
            name: name.to_owned(),
            pos,
            neg,
            dc,
            ac,
            waveform: Waveform::Dc,
        }));
        self
    }

    /// Add a voltage source with a transient waveform.
    pub fn vsource_tran(
        &mut self,
        name: &str,
        pos: &str,
        neg: &str,
        dc: f64,
        waveform: Waveform,
    ) -> &mut Self {
        let (pos, neg) = (self.node(pos), self.node(neg));
        self.elements.push(Element::Vsource(Vsource {
            name: name.to_owned(),
            pos,
            neg,
            dc,
            ac: 0.0,
            waveform,
        }));
        self
    }

    /// Add a DC current source (`dc` amperes drawn from `from`, delivered
    /// to `to`).
    pub fn isource(&mut self, name: &str, from: &str, to: &str, dc: f64) -> &mut Self {
        let (from, to) = (self.node(from), self.node(to));
        self.elements.push(Element::Isource(Isource {
            name: name.to_owned(),
            from,
            to,
            dc,
            ac: 0.0,
        }));
        self
    }

    /// Add a current source with DC and AC values.
    pub fn isource_ac(&mut self, name: &str, from: &str, to: &str, dc: f64, ac: f64) -> &mut Self {
        let (from, to) = (self.node(from), self.node(to));
        self.elements.push(Element::Isource(Isource {
            name: name.to_owned(),
            from,
            to,
            dc,
            ac,
        }));
        self
    }

    /// Add a MOS transistor with explicit junction data.
    #[allow(clippy::too_many_arguments)]
    pub fn mos(
        &mut self,
        name: &str,
        d: &str,
        g: &str,
        s: &str,
        b: &str,
        dev: Mosfet,
        junction: JunctionCaps,
        drain_geom: DiffGeom,
        source_geom: DiffGeom,
    ) -> &mut Self {
        let (d, g, s, b) = (self.node(d), self.node(g), self.node(s), self.node(b));
        self.elements.push(Element::Mos(MosInstance {
            name: name.to_owned(),
            d,
            g,
            s,
            b,
            dev,
            junction,
            drain_geom,
            source_geom,
        }));
        self
    }

    /// Change the DC value of a named voltage source (used by the offset
    /// and sweep measurements).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if no voltage source has that name.
    pub fn set_vsource_dc(&mut self, name: &str, dc: f64) -> Result<(), NetlistError> {
        for e in &mut self.elements {
            if let Element::Vsource(v) = e {
                if v.name == name {
                    v.dc = dc;
                    return Ok(());
                }
            }
        }
        Err(NetlistError::new(format!(
            "no voltage source named `{name}`"
        )))
    }

    /// Change the AC value of a named source (voltage or current).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if no source has that name.
    pub fn set_source_ac(&mut self, name: &str, ac: f64) -> Result<(), NetlistError> {
        for e in &mut self.elements {
            match e {
                Element::Vsource(v) if v.name == name => {
                    v.ac = ac;
                    return Ok(());
                }
                Element::Isource(i) if i.name == name => {
                    i.ac = ac;
                    return Ok(());
                }
                _ => {}
            }
        }
        Err(NetlistError::new(format!("no source named `{name}`")))
    }

    /// Sanity-check the netlist: no bad element values recorded at
    /// insertion, unique element names, at least one element.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        if let Some(first) = self.value_errors.first() {
            return Err(NetlistError::new(first.clone()));
        }
        let mut seen = BTreeSet::new();
        for e in &self.elements {
            if !seen.insert(e.name()) {
                return Err(NetlistError::new(format!(
                    "duplicate element name `{}`",
                    e.name()
                )));
            }
        }
        if self.elements.is_empty() {
            return Err(NetlistError::new("empty circuit"));
        }
        Ok(())
    }
}

/// Error for netlist construction/lookup problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistError {
    message: String,
}

impl NetlistError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist error: {}", self.message)
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), GROUND);
        assert_eq!(c.node("gnd"), GROUND);
        assert_eq!(c.node_name(GROUND), "0");
    }

    #[test]
    fn a_default_circuit_has_one_ground() {
        let mut c = Circuit::default();
        assert_eq!(c.node("gnd"), GROUND);
        assert_eq!(c.node("0"), GROUND);
        assert_eq!(c.num_nodes(), 1);
    }

    #[test]
    fn nodes_created_once() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("missing"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Circuit::new();
        c.resistor("r1", "a", "0", 1e3);
        c.resistor("r1", "b", "0", 1e3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new();
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_element_values_deferred_to_validate() {
        // Regression: these used to `assert!` inside the builder, killing
        // a whole engine worker through `catch_unwind` instead of failing
        // the one job with a typed error.
        type BadElement = (fn(&mut Circuit), &'static str);
        let cases: [BadElement; 4] = [
            (
                |c| {
                    c.resistor("r1", "a", "0", 0.0);
                },
                "resistor r1",
            ),
            (
                |c| {
                    c.resistor("r1", "a", "0", f64::NAN);
                },
                "resistor r1",
            ),
            (
                |c| {
                    c.capacitor("c1", "a", "0", -1e-12);
                },
                "capacitor c1",
            ),
            (
                |c| {
                    c.capacitor("c1", "a", "0", f64::INFINITY);
                },
                "capacitor c1",
            ),
        ];
        for (build, want) in cases {
            let mut c = Circuit::new();
            build(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(want), "got `{err}`");
            assert!(err.contains("bad value"), "got `{err}`");
        }
    }

    #[test]
    fn good_element_values_still_validate() {
        let mut c = Circuit::new();
        c.resistor("r1", "a", "0", 1e3);
        c.capacitor("c1", "a", "0", 0.0); // zero capacitance is legal
        assert!(c.validate().is_ok());
    }

    #[test]
    fn set_vsource_dc_works() {
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", 1.0);
        c.set_vsource_dc("vin", 2.0).unwrap();
        match &c.elements()[0] {
            Element::Vsource(v) => assert_eq!(v.dc, 2.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(c.set_vsource_dc("nope", 0.0).is_err());
    }

    #[test]
    fn set_source_ac_finds_both_kinds() {
        let mut c = Circuit::new();
        c.vsource("vin", "in", "0", 1.0);
        c.isource("iin", "0", "in", 1e-6);
        c.set_source_ac("vin", 1.0).unwrap();
        c.set_source_ac("iin", 0.5).unwrap();
        assert!(c.set_source_ac("none", 1.0).is_err());
    }

    #[test]
    fn waveform_step() {
        let w = Waveform::Step {
            level: 1.0,
            at: 1e-6,
            rise: 1e-7,
        };
        assert_eq!(w.value(0.0, 0.0), 0.0);
        assert_eq!(w.value(0.0, 1e-6), 0.0);
        assert!((w.value(0.0, 1.05e-6) - 0.5).abs() < 1e-9);
        assert_eq!(w.value(0.0, 2e-6), 1.0);
    }

    #[test]
    fn waveform_pulse() {
        let w = Waveform::Pulse {
            level: 1.0,
            delay: 0.0,
            width: 4e-7,
            period: 1e-6,
            edge: 1e-8,
        };
        assert!((w.value(0.0, 2e-7) - 1.0).abs() < 1e-12); // inside pulse
        assert!((w.value(0.0, 8e-7)).abs() < 1e-12); // after fall
        assert!((w.value(0.0, 1.2e-6) - 1.0).abs() < 1e-12); // second period
    }

    #[test]
    fn vsource_count() {
        let mut c = Circuit::new();
        c.vsource("v1", "a", "0", 1.0);
        c.vsource("v2", "b", "0", 2.0);
        c.resistor("r", "a", "b", 1e3);
        assert_eq!(c.num_vsources(), 2);
    }
}
