//! Output summaries held against the committed `golden/*.json`, which
//! `--write-golden` recorded on the parent of the commit that added this
//! benchmark: an oracle later commits do not share.

use nongemm::graph::NodeId;
use nongemm::serve::protocol::obj;
use nongemm::tensor::{DType, Tensor};
use serde_json::Value;

/// Relative tolerance on sums and leading values (the `bn_folding` policy's
/// relative bound); absolute floor for values near zero.
const REL: f64 = 1e-3;
const ABS: f64 = 1e-4;
const FIRST: usize = 4;

/// Shape, sum, absolute sum, position-weighted sum and leading values of one
/// output tensor. Most outputs are softmax rows whose sum is 1 whatever the
/// logits were; the weighted sum `Σ (i+1)·x[i] / n` also moves when the
/// mass moves to another class.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub shape: Vec<usize>,
    pub sum: f64,
    pub abs_sum: f64,
    pub weighted_sum: f64,
    pub first: Vec<f64>,
}

impl Summary {
    pub fn of(t: &Tensor) -> Summary {
        let c = t.contiguous();
        let values: Vec<f64> = match c.dtype() {
            DType::F32 => c
                .to_vec_f32()
                .map(|v| v.into_iter().map(f64::from).collect()),
            DType::I64 => c
                .to_vec_i64()
                .map(|v| v.into_iter().map(|x| x as f64).collect()),
            DType::Bool => c
                .to_vec_bool()
                .map(|v| v.into_iter().map(f64::from).collect()),
        }
        .expect("dtype matched");
        Summary {
            shape: t.shape().to_vec(),
            sum: values.iter().sum(),
            abs_sum: values.iter().map(|x| x.abs()).sum(),
            weighted_sum: values
                .iter()
                .enumerate()
                .map(|(i, x)| (i + 1) as f64 * x)
                .sum::<f64>()
                / values.len().max(1) as f64,
            first: values.iter().take(FIRST).copied().collect(),
        }
    }

    pub fn finite(&self) -> bool {
        self.sum.is_finite() && self.abs_sum.is_finite()
    }

    /// `Err` names the first field of `self` that departs from `golden`.
    pub fn matches(&self, golden: &Summary) -> Result<(), String> {
        if self.shape != golden.shape {
            return Err(format!("shape {:?}, golden {:?}", self.shape, golden.shape));
        }
        let scale = golden.abs_sum.max(ABS);
        if (self.sum - golden.sum).abs() > REL * scale {
            return Err(format!("sum {}, golden {}", self.sum, golden.sum));
        }
        if (self.abs_sum - golden.abs_sum).abs() > REL * scale {
            return Err(format!(
                "abs_sum {}, golden {}",
                self.abs_sum, golden.abs_sum
            ));
        }
        if (self.weighted_sum - golden.weighted_sum).abs() > REL * scale {
            let (a, g) = (self.weighted_sum, golden.weighted_sum);
            return Err(format!("weighted_sum {a}, golden {g}"));
        }
        for (i, (a, g)) in self.first.iter().zip(&golden.first).enumerate() {
            if (a - g).abs() > ABS + REL * g.abs() {
                return Err(format!("value[{i}] {a}, golden {g}"));
            }
        }
        Ok(())
    }

    fn to_value(&self) -> Value {
        let nums = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::Number(x)).collect());
        let shape: Vec<f64> = self.shape.iter().map(|&d| d as f64).collect();
        obj(vec![
            ("shape", nums(&shape)),
            ("sum", Value::Number(self.sum)),
            ("abs_sum", Value::Number(self.abs_sum)),
            ("weighted_sum", Value::Number(self.weighted_sum)),
            ("first", nums(&self.first)),
        ])
    }

    fn from_value(v: &Value) -> Option<Summary> {
        let nums =
            |v: &Value| -> Option<Vec<f64>> { v.as_array()?.iter().map(Value::as_f64).collect() };
        Some(Summary {
            shape: nums(&v["shape"])?.into_iter().map(|d| d as usize).collect(),
            sum: v["sum"].as_f64()?,
            abs_sum: v["abs_sum"].as_f64()?,
            weighted_sum: v["weighted_sum"].as_f64()?,
            first: nums(&v["first"])?,
        })
    }
}

pub fn summarize(outputs: &[(NodeId, Tensor)]) -> Vec<Summary> {
    outputs.iter().map(|(_, t)| Summary::of(t)).collect()
}

/// Compares every output of one graph with its golden summaries.
pub fn compare(actual: &[Summary], golden: &[Summary]) -> Result<(), String> {
    if actual.len() != golden.len() {
        return Err(format!("{} outputs, golden {}", actual.len(), golden.len()));
    }
    actual
        .iter()
        .zip(golden)
        .enumerate()
        .try_for_each(|(i, (a, g))| a.matches(g).map_err(|e| format!("output {i}: {e}")))
}

/// A golden file: graph alias to output summaries.
pub struct Golden(Vec<(String, Vec<Summary>)>);

impl Golden {
    /// Parses a committed golden file. A malformed file is a build defect.
    pub fn parse(text: &str) -> Golden {
        let v: Value = serde_json::from_str(text).expect("golden file is JSON");
        let graphs = v["graphs"].as_object().expect("golden file has graphs");
        Golden(
            graphs
                .iter()
                .map(|(alias, outs)| {
                    let outs = outs.as_array().expect("outputs are an array");
                    let outs = outs.iter().map(Summary::from_value).collect::<Option<_>>();
                    (alias.clone(), outs.expect("summary fields"))
                })
                .collect(),
        )
    }

    pub fn get(&self, alias: &str) -> Option<&[Summary]> {
        let found = self.0.iter().find(|(a, _)| a == alias);
        found.map(|(_, s)| s.as_slice())
    }

    pub fn render(graphs: &[(String, Vec<Summary>)]) -> String {
        let graphs: Vec<(String, Value)> = graphs
            .iter()
            .map(|(alias, outs)| {
                let outs = outs.iter().map(Summary::to_value).collect();
                (alias.clone(), Value::Array(outs))
            })
            .collect();
        let doc = obj(vec![
            ("schema", Value::Number(1.0)),
            (
                "weight_seed",
                Value::Number(crate::common::WEIGHT_SEED as f64),
            ),
            ("graphs", Value::Object(graphs)),
        ]);
        serde_json::to_string_pretty(&doc).expect("golden renders") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries_round_trip_and_catch_drift() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, 5.0, -6.0], &[2, 3]).unwrap();
        let s = Summary::of(&t);
        assert_eq!(s.shape, vec![2, 3]);
        assert_eq!((s.sum, s.abs_sum), (5.0, 21.0));
        assert_eq!(s.weighted_sum, (1.0 - 4.0 + 9.0 + 16.0 + 25.0 - 36.0) / 6.0);
        assert_eq!(s.first, vec![1.0, -2.0, 3.0, 4.0]);

        let text = Golden::render(&[("toy".into(), vec![s.clone()])]);
        let golden = Golden::parse(&text);
        assert_eq!(golden.get("toy"), Some(&[s.clone()][..]));
        assert!(golden.get("absent").is_none());
        assert!(compare(std::slice::from_ref(&s), golden.get("toy").unwrap()).is_ok());

        let nudged = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, 5.0, -6.001], &[2, 3]).unwrap();
        assert!(Summary::of(&nudged).matches(&s).is_ok());
        let drifted = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, 5.0, -6.5], &[2, 3]).unwrap();
        assert!(Summary::of(&drifted).matches(&s).is_err());
        // the same values with the mass moved: sums agree, the weighted sum does not
        let moved = Tensor::from_vec(vec![1.0, -2.0, 3.0, 4.0, -6.0, 5.0], &[2, 3]).unwrap();
        assert!(Summary::of(&moved).matches(&s).is_err());
        let reshaped = t.reshape(&[3, 2]).unwrap();
        assert!(Summary::of(&reshaped).matches(&s).is_err());
        assert!(compare(&[], golden.get("toy").unwrap()).is_err());
    }
}
