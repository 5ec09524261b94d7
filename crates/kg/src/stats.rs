//! Dataset statistics (Tables I and II of the paper).

use crate::graph::KnowledgeGraph;
use crate::ids::AttributeId;

/// Table I row: global counts.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DatasetStats {
    /// `|V|`.
    pub entities: usize,
    /// `|R|`.
    pub relations: usize,
    /// `|A|`.
    pub attributes: usize,
    /// `|E_r|`.
    pub relational_triples: usize,
    /// `|E_a|`.
    pub numeric_triples: usize,
}

/// Table II row: one attribute's value statistics.
#[derive(Clone, Debug)]
pub struct AttributeStats {
    /// Attribute id.
    pub attr: AttributeId,
    /// Attribute name.
    pub name: String,
    /// Number of recorded values.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Mean value.
    pub mean: f64,
}

impl AttributeStats {
    /// Value range `max - min` (Table II's last column).
    pub fn range(&self) -> f64 {
        self.max - self.min
    }
}

/// Computes Table I for a graph.
pub fn dataset_stats(g: &KnowledgeGraph) -> DatasetStats {
    DatasetStats {
        entities: g.num_entities(),
        relations: g.num_relations(),
        attributes: g.num_attributes(),
        relational_triples: g.triples().len(),
        numeric_triples: g.numerics().len(),
    }
}

/// Computes Table II: per-attribute min/max/count/mean (attributes with no
/// values are skipped).
pub fn attribute_stats(g: &KnowledgeGraph) -> Vec<AttributeStats> {
    let mut out = Vec::new();
    for a in 0..g.num_attributes() {
        let attr = AttributeId(a as u32);
        let owners = g.entities_with_attribute(attr);
        if owners.is_empty() {
            continue;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for f in owners {
            min = min.min(f.value);
            max = max.max(f.value);
            sum += f.value;
        }
        out.push(AttributeStats {
            attr,
            name: g.attribute_name(attr).to_string(),
            count: owners.len(),
            min,
            max,
            mean: sum / owners.len() as f64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_everything() {
        let mut g = KnowledgeGraph::new();
        let e0 = g.add_entity("a");
        let e1 = g.add_entity("b");
        let r = g.add_relation_type("r");
        let at = g.add_attribute_type("x");
        let _unused = g.add_attribute_type("y");
        g.add_triple(e0, r, e1);
        g.add_numeric(e0, at, 1.0);
        g.add_numeric(e1, at, 3.0);
        g.build_index();

        let s = dataset_stats(&g);
        assert_eq!(
            s,
            DatasetStats {
                entities: 2,
                relations: 1,
                attributes: 2,
                relational_triples: 1,
                numeric_triples: 2
            }
        );

        let attrs = attribute_stats(&g);
        assert_eq!(attrs.len(), 1, "empty attribute should be skipped");
        assert_eq!(attrs[0].count, 2);
        assert_eq!(attrs[0].min, 1.0);
        assert_eq!(attrs[0].max, 3.0);
        assert_eq!(attrs[0].mean, 2.0);
        assert_eq!(attrs[0].range(), 2.0);
    }
}
