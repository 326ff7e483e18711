//! Symbolic mask layers.
//!
//! The layout generators never hard-code mask numbers; they emit geometry on
//! these symbolic layers, which an export backend may map to any target
//! stream format. This is what makes the procedural generators
//! technology-independent (§3 of the paper, "Technology independence").

use std::fmt;

/// A symbolic mask layer.
///
/// The set is intentionally small: the generators target a generic two-metal
/// CMOS process, which is what the paper's 0.6 µm flow used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// N-well (hosts PMOS devices).
    Nwell,
    /// Active (diffusion) area.
    Active,
    /// N+ source/drain implant.
    Nplus,
    /// P+ source/drain implant.
    Pplus,
    /// Polysilicon (gates and short local wiring).
    Poly,
    /// Contact cut (active/poly to metal-1).
    Contact,
    /// First metal.
    Metal1,
    /// Via cut (metal-1 to metal-2).
    Via1,
    /// Second metal.
    Metal2,
}

impl Layer {
    /// All layers, in process order (bottom to top).
    pub const ALL: [Layer; 9] = [
        Layer::Nwell,
        Layer::Active,
        Layer::Nplus,
        Layer::Pplus,
        Layer::Poly,
        Layer::Contact,
        Layer::Metal1,
        Layer::Via1,
        Layer::Metal2,
    ];

    /// Is this a routing (interconnect) layer?
    pub fn is_routing(self) -> bool {
        matches!(self, Layer::Poly | Layer::Metal1 | Layer::Metal2)
    }

    /// Is this a cut (contact/via) layer?
    pub fn is_cut(self) -> bool {
        matches!(self, Layer::Contact | Layer::Via1)
    }

    /// Short lower-case mnemonic used by the text export backend.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Layer::Nwell => "nwell",
            Layer::Active => "active",
            Layer::Nplus => "nplus",
            Layer::Pplus => "pplus",
            Layer::Poly => "poly",
            Layer::Contact => "cont",
            Layer::Metal1 => "met1",
            Layer::Via1 => "via1",
            Layer::Metal2 => "met2",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_layers_unique_mnemonics() {
        let set: BTreeSet<_> = Layer::ALL.iter().map(|l| l.mnemonic()).collect();
        assert_eq!(set.len(), Layer::ALL.len());
    }

    #[test]
    fn routing_and_cut_classification() {
        assert!(Layer::Metal1.is_routing());
        assert!(Layer::Poly.is_routing());
        assert!(!Layer::Active.is_routing());
        assert!(Layer::Contact.is_cut());
        assert!(Layer::Via1.is_cut());
        assert!(!Layer::Metal2.is_cut());
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(Layer::Metal1.to_string(), "met1");
        assert_eq!(Layer::Nwell.to_string(), "nwell");
    }
}
