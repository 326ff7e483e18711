//! Layout cells: named bags of shapes with connectivity ports.
//!
//! Generators produce [`Cell`]s; composite generators *merge* child cells
//! at placement offsets (the geometry is flattened on placement, which
//! keeps extraction and DRC simple — hierarchy lives in the slicing tree
//! used for area optimisation, not in the geometry database).
//!
//! Every shape is tagged with the **net** it belongs to (or `None` for
//! passive geometry like wells and implants), which is what makes the
//! geometric parasitic extractor possible.

use crate::geom::Rect;
use losac_tech::units::Nm;
use losac_tech::Layer;
use std::collections::BTreeMap;

/// A drawn shape: a rectangle on a layer, optionally bound to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Mask layer.
    pub layer: Layer,
    /// Geometry.
    pub rect: Rect,
    /// Net this shape carries, if it is conducting signal geometry.
    pub net: Option<String>,
}

/// A connection point of a cell: where routing may attach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (terminal name within the cell, e.g. `"d"`).
    pub name: String,
    /// Net the port belongs to.
    pub net: String,
    /// Layer on which the port is accessible.
    pub layer: Layer,
    /// Landing geometry.
    pub rect: Rect,
}

/// A flattened layout cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cell {
    /// Cell name.
    pub name: String,
    /// All shapes.
    pub shapes: Vec<Shape>,
    /// Connection ports.
    pub ports: Vec<Port>,
}

impl Cell {
    /// An empty cell.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            shapes: Vec::new(),
            ports: Vec::new(),
        }
    }

    /// Add a passive shape (no net).
    pub fn draw(&mut self, layer: Layer, rect: Rect) {
        self.shapes.push(Shape {
            layer,
            rect,
            net: None,
        });
    }

    /// Add a conducting shape bound to `net`.
    pub fn draw_net(&mut self, layer: Layer, rect: Rect, net: &str) {
        self.shapes.push(Shape {
            layer,
            rect,
            net: Some(net.to_owned()),
        });
    }

    /// Declare a port.
    pub fn port(&mut self, name: &str, net: &str, layer: Layer, rect: Rect) {
        self.ports.push(Port {
            name: name.to_owned(),
            net: net.to_owned(),
            layer,
            rect,
        });
    }

    /// Bounding box of all shapes, or `None` for an empty cell.
    pub fn bbox(&self) -> Option<Rect> {
        let mut it = self.shapes.iter();
        let first = it.next()?.rect;
        Some(it.fold(first, |acc, s| acc.union(&s.rect)))
    }

    /// Width of the bounding box (0 for an empty cell).
    pub fn width(&self) -> Nm {
        self.bbox().map_or(0, |b| b.width())
    }

    /// Height of the bounding box (0 for an empty cell).
    pub fn height(&self) -> Nm {
        self.bbox().map_or(0, |b| b.height())
    }

    /// Merge `child` into `self` at offset (dx, dy). Ports are imported
    /// with their names prefixed by `prefix` + `.` (pass `""` to keep
    /// names); nets are imported unchanged (net names are global).
    pub fn place(&mut self, child: &Cell, dx: Nm, dy: Nm, prefix: &str) {
        for s in &child.shapes {
            self.shapes.push(Shape {
                layer: s.layer,
                rect: s.rect.translated(dx, dy),
                net: s.net.clone(),
            });
        }
        self.place_ports(child, dx, dy, prefix);
    }

    /// The port half of [`place`](Self::place): import `child`'s ports
    /// alone, for a cell whose ports are all that is read (the channel
    /// demand of a trial placement).
    pub fn place_ports(&mut self, child: &Cell, dx: Nm, dy: Nm, prefix: &str) {
        for p in &child.ports {
            let name = if prefix.is_empty() {
                p.name.clone()
            } else {
                format!("{prefix}.{}", p.name)
            };
            self.ports.push(Port {
                name,
                net: p.net.clone(),
                layer: p.layer,
                rect: p.rect.translated(dx, dy),
            });
        }
    }

    /// Find a port by name.
    pub fn find_port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// All shapes on a given layer.
    pub fn shapes_on(&self, layer: Layer) -> impl Iterator<Item = &Shape> {
        self.shapes.iter().filter(move |s| s.layer == layer)
    }

    /// Total drawn area per layer (nm², overlaps double-counted — fine
    /// for the generators here, which draw non-overlapping same-layer
    /// geometry within a cell).
    pub fn area_by_layer(&self) -> BTreeMap<Layer, i128> {
        let mut map = BTreeMap::new();
        for s in &self.shapes {
            *map.entry(s.layer).or_insert(0) += s.rect.area_nm2();
        }
        map
    }

    /// Rename every occurrence of net `from` to `to` (shapes and ports).
    pub fn rename_net(&mut self, from: &str, to: &str) {
        for s in &mut self.shapes {
            if s.net.as_deref() == Some(from) {
                s.net = Some(to.to_owned());
            }
        }
        for p in &mut self.ports {
            if p.net == from {
                p.net = to.to_owned();
            }
        }
    }

    /// Mirror the whole cell about the vertical axis `x = axis`.
    pub fn mirrored_x(&self, axis: Nm) -> Cell {
        let mut out = Cell::new(self.name.clone());
        for s in &self.shapes {
            out.shapes.push(Shape {
                layer: s.layer,
                rect: s.rect.mirrored_x(axis),
                net: s.net.clone(),
            });
        }
        for p in &self.ports {
            out.ports.push(Port {
                name: p.name.clone(),
                net: p.net.clone(),
                layer: p.layer,
                rect: p.rect.mirrored_x(axis),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cell {
        let mut c = Cell::new("t");
        c.draw(Layer::Active, Rect::from_size(0, 0, 1000, 500));
        c.draw_net(Layer::Metal1, Rect::from_size(0, 600, 1000, 200), "out");
        c.port("d", "out", Layer::Metal1, Rect::from_size(0, 600, 200, 200));
        c
    }

    #[test]
    fn bbox_and_dimensions() {
        let c = sample();
        assert_eq!(c.bbox(), Some(Rect::new(0, 0, 1000, 800)));
        assert_eq!(c.width(), 1000);
        assert_eq!(c.height(), 800);
        assert_eq!(Cell::new("e").bbox(), None);
        assert_eq!(Cell::new("e").width(), 0);
    }

    #[test]
    fn placement_translates_everything() {
        let child = sample();
        let mut parent = Cell::new("top");
        parent.place(&child, 5000, 100, "m1");
        assert_eq!(parent.shapes.len(), 2);
        assert_eq!(parent.shapes[0].rect, Rect::from_size(5000, 100, 1000, 500));
        let p = parent.find_port("m1.d").expect("prefixed port");
        assert_eq!(p.rect, Rect::from_size(5000, 700, 200, 200));
        assert_eq!(p.net, "out");
    }

    #[test]
    fn empty_prefix_keeps_port_names() {
        let child = sample();
        let mut parent = Cell::new("top");
        parent.place(&child, 0, 0, "");
        assert!(parent.find_port("d").is_some());
    }

    #[test]
    fn area_by_layer_accumulates() {
        let c = sample();
        let areas = c.area_by_layer();
        assert_eq!(areas[&Layer::Active], 500_000);
        assert_eq!(areas[&Layer::Metal1], 200_000);
    }

    #[test]
    fn rename_net_touches_shapes_and_ports() {
        let mut c = sample();
        c.rename_net("out", "vout");
        assert_eq!(c.shapes[1].net.as_deref(), Some("vout"));
        assert_eq!(c.ports[0].net, "vout");
    }

    #[test]
    fn mirror_preserves_sizes() {
        let c = sample();
        let m = c.mirrored_x(0);
        assert_eq!(m.width(), c.width());
        assert_eq!(m.height(), c.height());
        assert_eq!(m.shapes[0].rect.x1, 0);
    }

    #[test]
    fn shapes_on_filters_layer() {
        let c = sample();
        assert_eq!(c.shapes_on(Layer::Metal1).count(), 1);
        assert_eq!(c.shapes_on(Layer::Poly).count(), 0);
    }
}
