//! Design-rule checking.
//!
//! A lightweight geometric checker used by the test suite to prove that
//! the procedural generators emit legal geometry in *any* technology:
//! minimum width, same-layer spacing (different nets), cut enclosure, and
//! well enclosure of P+ active.

use crate::cell::Cell;
use crate::geom::Rect;
use losac_obs::Counter;
use losac_tech::{Layer, Technology};
use std::fmt;

/// DRC runs performed.
static DRC_CHECKS: Counter = Counter::new("layout.drc.checks");
/// Total violations reported across all runs.
static DRC_VIOLATIONS: Counter = Counter::new("layout.drc.violations");

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check fired.
    pub rule: String,
    /// Layer involved.
    pub layer: Layer,
    /// Offending geometry.
    pub rect: Rect,
    /// Explanation with measured vs required values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} at {}: {}",
            self.layer, self.rule, self.rect, self.detail
        )
    }
}

/// Run the checks on a flattened cell. Returns all violations found
/// (empty = clean).
pub fn check(tech: &Technology, cell: &Cell) -> Vec<Violation> {
    let _span = losac_obs::span("layout.drc.check");
    DRC_CHECKS.incr();
    let r = &tech.rules;
    let mut out = Vec::new();

    let min_width = |layer: Layer| -> Option<i64> {
        Some(match layer {
            Layer::Poly => r.poly_width,
            Layer::Active => r.active_width,
            Layer::Metal1 => r.metal1_width,
            Layer::Metal2 => r.metal2_width,
            Layer::Contact => r.contact_size,
            Layer::Via1 => r.via_size,
            _ => return None,
        })
    };
    let min_space = |layer: Layer| -> Option<i64> {
        Some(match layer {
            Layer::Poly => r.poly_space,
            Layer::Active => r.active_space,
            Layer::Metal1 => r.metal1_space,
            Layer::Metal2 => r.metal2_space,
            Layer::Contact => r.contact_space,
            Layer::Via1 => r.via_space,
            Layer::Nwell => r.nwell_space,
            _ => return None,
        })
    };

    // Width checks.
    for s in &cell.shapes {
        if let Some(w) = min_width(s.layer) {
            let m = s.rect.width().min(s.rect.height());
            if m < w {
                out.push(Violation {
                    rule: "min-width".into(),
                    layer: s.layer,
                    rect: s.rect,
                    detail: format!("{m} < {w}"),
                });
            }
        }
        // Cuts must be exactly the cut size.
        if s.layer.is_cut() {
            let sz = min_width(s.layer).unwrap();
            if s.rect.width() != sz || s.rect.height() != sz {
                out.push(Violation {
                    rule: "cut-size".into(),
                    layer: s.layer,
                    rect: s.rect,
                    detail: format!("{}×{} ≠ {sz}", s.rect.width(), s.rect.height()),
                });
            }
        }
        // Grid alignment.
        for v in [s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1] {
            if v % tech.grid != 0 {
                out.push(Violation {
                    rule: "off-grid".into(),
                    layer: s.layer,
                    rect: s.rect,
                    detail: format!("coordinate {v} not on {} nm grid", tech.grid),
                });
                break;
            }
        }
    }

    // Spacing checks: same layer, disjoint rectangles, different nets (or
    // either side netless). Same-net geometry may abut/overlap freely.
    for (i, a) in cell.shapes.iter().enumerate() {
        for b in cell.shapes.iter().skip(i + 1) {
            if a.layer != b.layer {
                continue;
            }
            let Some(space) = min_space(a.layer) else {
                continue;
            };
            let same_net = match (&a.net, &b.net) {
                (Some(x), Some(y)) => x == y,
                _ => a.layer == Layer::Nwell || a.layer == Layer::Active,
            };
            if same_net {
                continue;
            }
            if a.rect.overlaps(&b.rect) || a.rect.spacing_to(&b.rect) == 0 {
                // Overlap of different nets = short, reported by the
                // connectivity check below (cut layers excepted: stacked
                // cuts of one net were filtered by same_net already).
                if !a.rect.overlaps(&b.rect) {
                    continue;
                }
                out.push(Violation {
                    rule: "short".into(),
                    layer: a.layer,
                    rect: a.rect,
                    detail: format!("nets {:?}/{:?} overlap at {}", a.net, b.net, b.rect),
                });
                continue;
            }
            let d = a.rect.spacing_to(&b.rect);
            if d < space {
                out.push(Violation {
                    rule: "min-space".into(),
                    layer: a.layer,
                    rect: a.rect,
                    detail: format!("{d} < {space} to {}", b.rect),
                });
            }
        }
    }

    // Cut enclosure: every contact needs active-or-poly and metal-1 cover;
    // every via needs metal-1 and metal-2 cover.
    for s in &cell.shapes {
        match s.layer {
            Layer::Contact => {
                let lower_ok = cell.shapes.iter().any(|o| {
                    (o.layer == Layer::Active
                        && o.rect.contains(&s.rect.expanded(r.active_over_contact)))
                        || (o.layer == Layer::Poly
                            && o.rect.contains(&s.rect.expanded(r.poly_over_contact)))
                        // Merged cover from two abutting rects of the same
                        // net: fall back to plain containment.
                        || ((o.layer == Layer::Active || o.layer == Layer::Poly)
                            && o.rect.contains(&s.rect))
                });
                let m1_ok = cell
                    .shapes
                    .iter()
                    .any(|o| o.layer == Layer::Metal1 && o.rect.contains(&s.rect));
                if !lower_ok {
                    out.push(Violation {
                        rule: "contact-uncovered".into(),
                        layer: s.layer,
                        rect: s.rect,
                        detail: "no active/poly under contact".into(),
                    });
                }
                if !m1_ok {
                    out.push(Violation {
                        rule: "contact-no-metal".into(),
                        layer: s.layer,
                        rect: s.rect,
                        detail: "no metal-1 over contact".into(),
                    });
                }
            }
            Layer::Via1 => {
                for (cover, rule) in [
                    (Layer::Metal1, "via-no-metal1"),
                    (Layer::Metal2, "via-no-metal2"),
                ] {
                    let ok = cell
                        .shapes
                        .iter()
                        .any(|o| o.layer == cover && o.rect.contains(&s.rect));
                    if !ok {
                        out.push(Violation {
                            rule: rule.into(),
                            layer: s.layer,
                            rect: s.rect,
                            detail: format!("no {cover} covering via"),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // Well enclosure of P+ active.
    let wells: Vec<Rect> = cell.shapes_on(Layer::Nwell).map(|s| s.rect).collect();
    for s in cell.shapes_on(Layer::Pplus) {
        let ok = wells.iter().any(|w| w.contains(&s.rect.expanded(-0)))
            && wells.iter().any(|w| {
                w.x0 <= s.rect.x0 && w.y0 <= s.rect.y0 && w.x1 >= s.rect.x1 && w.y1 >= s.rect.y1
            });
        if !ok {
            out.push(Violation {
                rule: "pplus-outside-well".into(),
                layer: Layer::Pplus,
                rect: s.rect,
                detail: "P+ implant not enclosed by an N-well".into(),
            });
        }
    }

    DRC_VIOLATIONS.add(out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{build_row, Finger, RowSpec};
    use losac_tech::units::um;
    use losac_tech::Polarity;
    use std::collections::BTreeMap;

    fn simple_row(polarity: Polarity, tech: &Technology) -> Cell {
        let spec = RowSpec {
            name: "m".into(),
            polarity,
            finger_w: tech.snap_up(um(5.0)),
            gate_l: tech.rules.poly_width,
            strip_nets: ["s", "d", "s"].iter().map(|s| s.to_string()).collect(),
            fingers: (0..2)
                .map(|i| Finger {
                    gate_net: "g".into(),
                    device: Some("m".into()),
                    flipped: i == 1,
                })
                .collect(),
            bulk_net: if polarity == Polarity::Pmos {
                "vdd".into()
            } else {
                "gnd".into()
            },
            net_currents: BTreeMap::new(),
        };
        build_row(tech, &spec).unwrap().cell
    }

    #[test]
    fn generated_nmos_row_is_clean_cmos06() {
        let t = Technology::cmos06();
        let cell = simple_row(Polarity::Nmos, &t);
        let v = check(&t, &cell);
        assert!(v.is_empty(), "violations: {:#?}", v);
    }

    #[test]
    fn generated_pmos_row_is_clean_cmos06() {
        let t = Technology::cmos06();
        let cell = simple_row(Polarity::Pmos, &t);
        let v = check(&t, &cell);
        assert!(v.is_empty(), "violations: {:#?}", v);
    }

    #[test]
    fn generated_rows_clean_in_cmos035() {
        let t = Technology::cmos035();
        for p in [Polarity::Nmos, Polarity::Pmos] {
            let cell = simple_row(p, &t);
            let v = check(&t, &cell);
            assert!(v.is_empty(), "{p}: {:#?}", v);
        }
    }

    #[test]
    fn detects_narrow_wire() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw_net(Layer::Metal1, Rect::from_size(0, 0, um(10.0), 400), "n");
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "min-width"));
    }

    #[test]
    fn detects_close_wires() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw_net(Layer::Metal1, Rect::from_size(0, 0, um(10.0), um(1.0)), "a");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(0, um(1.0) + 400, um(10.0), um(1.0)),
            "b",
        );
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "min-space"), "{v:?}");
    }

    #[test]
    fn detects_short() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw_net(Layer::Metal1, Rect::from_size(0, 0, um(10.0), um(1.0)), "a");
        c.draw_net(
            Layer::Metal1,
            Rect::from_size(um(5.0), 0, um(10.0), um(1.0)),
            "b",
        );
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "short"), "{v:?}");
    }

    #[test]
    fn detects_uncovered_contact() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw_net(Layer::Contact, Rect::from_size(0, 0, 600, 600), "n");
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "contact-uncovered"));
        assert!(v.iter().any(|v| v.rule == "contact-no-metal"));
    }

    #[test]
    fn detects_pplus_outside_well() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw(Layer::Pplus, Rect::from_size(0, 0, um(5.0), um(5.0)));
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "pplus-outside-well"));
    }

    #[test]
    fn detects_off_grid() {
        let t = Technology::cmos06();
        let mut c = Cell::new("bad");
        c.draw_net(Layer::Metal1, Rect::from_size(1, 0, um(10.0), um(1.0)), "n");
        let v = check(&t, &c);
        assert!(v.iter().any(|v| v.rule == "off-grid"));
    }
}
