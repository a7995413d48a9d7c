//! Aggregate accumulators.
//!
//! Accumulators are explicitly **mergeable**: `update` folds one input in,
//! `merge` combines two partial states. Mergeability is what enables the
//! paper's shared "Jellybean" processing (§2.2, refs [4, 12]): the CQ layer
//! keeps one partial accumulator per time slice and composes windows by
//! merging slices, instead of re-aggregating raw rows per window per query.
//!
//! A sliding window keeps the *merged* state across closes
//! ([`Accumulator::running`]): `merge` adds the partial of the slice that
//! enters, [`Accumulator::retract`] takes the one that leaves back out.

use std::cmp::Ordering::{Greater, Less};
use std::collections::{HashMap, VecDeque};

use streamrel_types::{DataType, Error, Result, Value};

use streamrel_sql::plan::{AggFunc, AggSpec};

/// Partial state of one aggregate.
#[derive(Debug, Clone)]
enum State {
    Count(i64),
    /// SUM and AVG over integers: the exact sum. `n` counts non-NULL
    /// inputs (retracted to zero, the result is NULL again); `avg` divides
    /// at `finish` — an f64 sum past 2^53 rounds, and a retraction would
    /// keep the error.
    SumInt {
        sum: Wide,
        n: i64,
        avg: bool,
    },
    SumFloat {
        sum: f64,
        any: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    /// Variance/stddev via mergeable (n, sum, sum of squares).
    Var {
        n: i64,
        sum: f64,
        sumsq: f64,
        stddev: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    MinMaxRun(Box<Runs>),
    Distinct(Box<DistinctSet>),
}

/// A sum of `i64`s that cannot overflow: `n` of them (an `i64`, checked
/// where it is scaled) stay below 2^126. Packed so a partial stays four
/// words.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(8))]
struct Wide(i128);

impl Wide {
    /// SUM is an `i64` and fails before it would leave it; AVG has the
    /// width.
    fn checked(sum: i128, avg: bool) -> Result<Wide> {
        if avg || i64::try_from(sum).is_ok() {
            return Ok(Wide(sum));
        }
        Err(Error::Arithmetic("sum() integer overflow".into()))
    }
}

/// The values a DISTINCT aggregate has seen: value → (merged partials that
/// hold it, first-seen rank). The count lets a partial be retracted, the
/// rank lets `finish` add in first-seen order however the map iterates.
#[derive(Debug, Clone)]
struct DistinctSet {
    seen: HashMap<Value, (u32, u64)>,
    /// Rank the next unseen value takes.
    next: u64,
    func: AggFunc,
}

/// Running MIN/MAX over the partials merged and not yet retracted: the
/// sliding-window-minimum deque. An entry is a candidate and the partials it
/// stands for (its own and the worse ones before it); the front is the
/// answer, and the earliest of equal values.
#[derive(Debug, Clone)]
struct Runs {
    runs: VecDeque<(Option<Value>, u32)>,
    is_min: bool,
}

impl Runs {
    fn push(&mut self, new: &Option<Value>) {
        let mut stands_for = 1;
        while let Some((old, n)) = self.runs.back_mut() {
            match (new, &*old) {
                (Some(v), Some(o)) if identical(v, o) => {
                    *n += stands_for;
                    return;
                }
                (Some(v), Some(o)) if !beats(self.is_min, v, o) => break,
                (None, Some(_)) => break,
                _ => {
                    stands_for += *n;
                    self.runs.pop_back();
                }
            }
        }
        self.runs.push_back((new.clone(), stands_for));
    }

    fn best(&self) -> Option<&Value> {
        self.runs.front().and_then(|(v, _)| v.as_ref())
    }
}

/// Strictly better, so of equal values the first seen stays.
fn beats(is_min: bool, new: &Value, old: &Value) -> bool {
    let wanted = if is_min { Less } else { Greater };
    new.sort_cmp(old) == wanted
}

fn offer(best: &mut Option<Value>, is_min: bool, v: &Value) {
    if best.as_ref().is_none_or(|b| beats(is_min, v, b)) {
        *best = Some(v.clone());
    }
}

/// Equal *and* spelled alike (`0.0` equals `-0.0` and `1` equals `1.0`).
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn float_arg(spec: &AggSpec) -> bool {
    matches!(spec.arg.as_ref().map(|a| a.ty()), Some(DataType::Float))
}

/// A running aggregate computation.
#[derive(Debug, Clone)]
pub struct Accumulator {
    state: State,
}

impl Accumulator {
    /// Fresh accumulator for an aggregate spec.
    pub fn new(spec: &AggSpec) -> Accumulator {
        Accumulator::for_func(spec.func, spec.distinct, float_arg(spec))
    }

    /// Fresh accumulator for the merged state a sliding window keeps. It
    /// differs from [`Accumulator::new`] for MIN/MAX, whose single best
    /// value cannot forget: it takes whole partials, not inputs.
    pub fn running(spec: &AggSpec) -> Accumulator {
        match Accumulator::new(spec).state {
            State::MinMax { is_min, .. } => {
                let runs = VecDeque::new();
                let state = State::MinMaxRun(Box::new(Runs { runs, is_min }));
                Accumulator { state }
            }
            state => Accumulator { state },
        }
    }

    /// Whether [`Accumulator::retract`] is exact for `spec`. Not for float
    /// SUM/AVG and VARIANCE/STDDEV: subtract-on-evict float sums drift
    /// without bound in a query that never ends.
    pub fn has_inverse(spec: &AggSpec) -> bool {
        match spec.func {
            AggFunc::Sum | AggFunc::Avg => !float_arg(spec),
            AggFunc::Variance | AggFunc::Stddev => false,
            AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        }
    }

    /// Fresh accumulator by function; `float_arg` selects float summation.
    pub fn for_func(func: AggFunc, distinct: bool, float_arg: bool) -> Accumulator {
        let state = if distinct {
            State::Distinct(Box::new(DistinctSet {
                seen: HashMap::new(),
                next: 0,
                func,
            }))
        } else {
            match func {
                AggFunc::Count => State::Count(0),
                AggFunc::Sum if float_arg => State::SumFloat {
                    sum: 0.0,
                    any: false,
                },
                AggFunc::Avg if float_arg => State::Avg { sum: 0.0, n: 0 },
                AggFunc::Sum | AggFunc::Avg => State::SumInt {
                    sum: Wide(0),
                    n: 0,
                    avg: func == AggFunc::Avg,
                },
                AggFunc::Variance | AggFunc::Stddev => State::Var {
                    n: 0,
                    sum: 0.0,
                    sumsq: 0.0,
                    stddev: func == AggFunc::Stddev,
                },
                AggFunc::Min | AggFunc::Max => State::MinMax {
                    best: None,
                    is_min: func == AggFunc::Min,
                },
            }
        };
        Accumulator { state }
    }

    /// Fold one input value in. `None` means a `count(*)` row (no
    /// argument); `Some(Null)` is skipped per SQL aggregate semantics.
    pub fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        let Some(v) = arg else {
            let State::Count(n) = &mut self.state else {
                return Err(Error::analysis("aggregate requires an argument"));
            };
            *n += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        match &mut self.state {
            State::Count(n) => *n += 1,
            State::SumInt { sum, n, avg } => {
                *sum = Wide::checked(sum.0 + i128::from(v.as_int()?), *avg)?;
                *n += 1;
            }
            State::SumFloat { sum, any } => {
                *sum += v.as_float()?;
                *any = true;
            }
            State::Avg { sum, n } => {
                *sum += v.as_float()?;
                *n += 1;
            }
            State::Var { n, sum, sumsq, .. } => {
                let x = v.as_float()?;
                *n += 1;
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMax { best, is_min } => offer(best, *is_min, v),
            State::MinMaxRun(_) => {
                return Err(Error::analysis("a running min/max takes whole partials"))
            }
            State::Distinct(d) => {
                if !d.seen.contains_key(v) {
                    d.seen.insert(v.clone(), (1, d.next));
                    d.next += 1;
                }
            }
        }
        Ok(())
    }

    /// Merge another partial state into this one (slice composition).
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (&mut self.state, &other.state) {
            (State::Count(a), State::Count(b)) => *a += b,
            (State::SumInt { sum: a, n: an, avg }, State::SumInt { sum: b, n: bn, .. }) => {
                *a = Wide::checked(a.0 + b.0, *avg)?;
                *an += bn;
            }
            (State::SumFloat { sum: a, any: aa }, State::SumFloat { sum: b, any: ba }) => {
                *a += b;
                *aa |= ba;
            }
            (State::Avg { sum: a, n: an }, State::Avg { sum: b, n: bn }) => {
                *a += b;
                *an += bn;
            }
            (
                State::Var {
                    n: an,
                    sum: asum,
                    sumsq: asq,
                    ..
                },
                State::Var {
                    n: bn,
                    sum: bsum,
                    sumsq: bsq,
                    ..
                },
            ) => {
                *an += bn;
                *asum += bsum;
                *asq += bsq;
            }
            (State::MinMax { best: a, is_min }, State::MinMax { best: Some(b), .. }) => {
                offer(a, *is_min, b)
            }
            (State::MinMax { .. }, State::MinMax { best: None, .. }) => {}
            // Reading a running state out as a plain partial.
            (State::MinMax { best: a, is_min }, State::MinMaxRun(r)) => {
                r.best().into_iter().for_each(|b| offer(a, *is_min, b))
            }
            (State::MinMaxRun(r), State::MinMax { best, .. }) => r.push(best),
            (State::Distinct(a), State::Distinct(b)) => {
                let a = &mut **a;
                for (v, (n, rank)) in &b.seen {
                    a.seen.entry(v.clone()).or_insert((0, a.next + rank)).0 += n;
                }
                a.next += b.next;
            }
            _ => {
                return Err(Error::analysis(
                    "cannot merge accumulators of different kinds",
                ))
            }
        }
        Ok(())
    }

    /// Take a partial that was merged into this state back out — exact
    /// where [`Accumulator::has_inverse`] says so. Partials leave in the
    /// order they were merged (a running MIN/MAX forgets its oldest).
    pub fn retract(&mut self, leaving: &Accumulator) -> Result<()> {
        match (&mut self.state, &leaving.state) {
            (State::Count(a), State::Count(b)) => *a -= b,
            (State::SumInt { sum: a, n: an, .. }, State::SumInt { sum: b, n: bn, .. }) => {
                a.0 -= b.0;
                *an -= bn;
            }
            (State::MinMaxRun(r), State::MinMax { .. }) => {
                if let Some((_, n)) = r.runs.front_mut() {
                    *n -= 1;
                    if *n == 0 {
                        r.runs.pop_front();
                    }
                }
            }
            (State::Distinct(a), State::Distinct(b)) => {
                for (v, (n, _)) in &b.seen {
                    let gone = a.seen.get_mut(v).is_some_and(|e| {
                        e.0 = e.0.saturating_sub(*n);
                        e.0 == 0
                    });
                    if gone {
                        a.seen.remove(v);
                    }
                }
            }
            _ => return Err(Error::analysis("aggregate state has no exact inverse")),
        }
        Ok(())
    }

    /// Scale the partial as if every contributing input row had occurred
    /// `m` times. The IVM join path uses this: a stream-side partial built
    /// once per tuple is multiplied by the tuple's table-match count, which
    /// is exactly what re-evaluating the join would have produced (each
    /// match repeats the left row's aggregate contribution). Min/max and
    /// DISTINCT states are repetition-invariant and unchanged.
    pub fn scale(&mut self, m: i64) -> Result<()> {
        debug_assert!(m >= 1, "scale factor must be a positive match count");
        let overflow = || Error::Arithmetic("aggregate scale overflow".into());
        match &mut self.state {
            State::Count(n) => *n = n.checked_mul(m).ok_or_else(overflow)?,
            State::SumInt { sum, n, avg } => {
                // `n * m` in range keeps the product inside the width.
                let scaled = n.checked_mul(m).ok_or_else(overflow)?;
                *sum = Wide::checked(sum.0 * i128::from(m), *avg).map_err(|_| overflow())?;
                *n = scaled;
            }
            State::SumFloat { sum, .. } => *sum *= m as f64,
            State::Avg { sum, n } => {
                *sum *= m as f64;
                *n = n.checked_mul(m).ok_or_else(overflow)?;
            }
            State::Var { n, sum, sumsq, .. } => {
                *n = n.checked_mul(m).ok_or_else(overflow)?;
                *sum *= m as f64;
                *sumsq *= m as f64;
            }
            State::MinMax { .. } | State::MinMaxRun(_) | State::Distinct(_) => {}
        }
        Ok(())
    }

    /// Final value: SQL semantics (`sum`/`min`/`max`/`avg` over nothing is
    /// NULL; `count` over nothing is 0).
    pub fn finish(&self) -> Value {
        match &self.state {
            State::Count(n) => Value::Int(*n),
            State::SumInt { n: 0, .. } => Value::Null,
            State::SumInt { sum, n, avg } => {
                if *avg {
                    Value::Float(sum.0 as f64 / *n as f64)
                } else {
                    Value::Int(sum.0 as i64)
                }
            }
            State::SumFloat { sum, any } => {
                if *any {
                    Value::Float(*sum)
                } else {
                    Value::Null
                }
            }
            State::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            State::Var {
                n,
                sum,
                sumsq,
                stddev,
            } => {
                if *n < 2 {
                    Value::Null
                } else {
                    let nf = *n as f64;
                    let var = ((sumsq - sum * sum / nf) / (nf - 1.0)).max(0.0);
                    Value::Float(if *stddev { var.sqrt() } else { var })
                }
            }
            State::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
            State::MinMaxRun(r) => r.best().cloned().unwrap_or(Value::Null),
            State::Distinct(d) => d.finish(),
        }
    }
}

impl DistinctSet {
    /// DISTINCT is "dedupe, then aggregate": the plain aggregate over the
    /// values in first-seen order — float addition is not associative, and
    /// the map iterates in an order of its own.
    fn finish(&self) -> Value {
        if self.func == AggFunc::Count {
            return Value::Int(self.seen.len() as i64);
        }
        let mut vals: Vec<(u64, &Value)> = self.seen.iter().map(|(v, e)| (e.1, v)).collect();
        vals.sort_unstable_by_key(|(rank, _)| *rank);
        let float = vals.iter().any(|(_, v)| matches!(v, Value::Float(_)));
        let mut plain = Accumulator::for_func(self.func, false, float);
        for (_, v) in vals {
            if plain.update(Some(v)).is_err() {
                return Value::Null;
            }
        }
        plain.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(func: AggFunc) -> Accumulator {
        Accumulator::for_func(func, false, false)
    }

    #[test]
    fn count_star_and_count_col() {
        let mut a = acc(AggFunc::Count);
        a.update(None).unwrap();
        a.update(None).unwrap();
        assert_eq!(a.finish(), Value::Int(2));
        let mut b = acc(AggFunc::Count);
        b.update(Some(&Value::Int(1))).unwrap();
        b.update(Some(&Value::Null)).unwrap();
        assert_eq!(b.finish(), Value::Int(1), "count(col) skips NULLs");
    }

    #[test]
    fn sum_skips_null_and_empty_is_null() {
        let mut a = acc(AggFunc::Sum);
        assert_eq!(a.finish(), Value::Null);
        a.update(Some(&Value::Int(5))).unwrap();
        a.update(Some(&Value::Null)).unwrap();
        a.update(Some(&Value::Int(7))).unwrap();
        assert_eq!(a.finish(), Value::Int(12));
    }

    #[test]
    fn sum_overflow_detected() {
        let mut a = acc(AggFunc::Sum);
        a.update(Some(&Value::Int(i64::MAX))).unwrap();
        assert!(a.update(Some(&Value::Int(1))).is_err());
        assert_eq!(
            a.finish(),
            Value::Int(i64::MAX),
            "a refused input is not applied"
        );
        // AVG has the width: the same inputs are no overflow to it.
        let mut avg = acc(AggFunc::Avg);
        avg.update(Some(&Value::Int(i64::MAX))).unwrap();
        avg.update(Some(&Value::Int(i64::MAX))).unwrap();
        assert_eq!(avg.finish(), Value::Float(i64::MAX as f64));
    }

    #[test]
    fn avg() {
        let mut a = acc(AggFunc::Avg);
        for v in [1, 2, 3, 4] {
            a.update(Some(&Value::Int(v))).unwrap();
        }
        assert_eq!(a.finish(), Value::Float(2.5));
        assert_eq!(acc(AggFunc::Avg).finish(), Value::Null);
    }

    #[test]
    fn min_max() {
        let mut mn = acc(AggFunc::Min);
        let mut mx = acc(AggFunc::Max);
        for v in ["pear", "apple", "zoo"] {
            mn.update(Some(&Value::text(v))).unwrap();
            mx.update(Some(&Value::text(v))).unwrap();
        }
        assert_eq!(mn.finish(), Value::text("apple"));
        assert_eq!(mx.finish(), Value::text("zoo"));
    }

    #[test]
    fn merge_equals_sequential() {
        // Property: splitting the input across two accumulators and merging
        // gives the same result as one accumulator (core slice-sharing
        // invariant).
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let vals: Vec<Value> = (0..10).map(Value::Int).collect();
            let mut whole = acc(func);
            for v in &vals {
                whole.update(Some(v)).unwrap();
            }
            let mut left = acc(func);
            let mut right = acc(func);
            for v in &vals[..4] {
                left.update(Some(v)).unwrap();
            }
            for v in &vals[4..] {
                right.update(Some(v)).unwrap();
            }
            left.merge(&right).unwrap();
            assert_eq!(left.finish(), whole.finish(), "{func:?}");
        }
    }

    #[test]
    fn distinct_count_dedups_across_merge() {
        let mut a = Accumulator::for_func(AggFunc::Count, true, false);
        let mut b = Accumulator::for_func(AggFunc::Count, true, false);
        for v in [1, 2, 2, 3] {
            a.update(Some(&Value::Int(v))).unwrap();
        }
        for v in [3, 4] {
            b.update(Some(&Value::Int(v))).unwrap();
        }
        a.merge(&b).unwrap();
        assert_eq!(a.finish(), Value::Int(4));
    }

    #[test]
    fn distinct_sum_avg() {
        let mut s = Accumulator::for_func(AggFunc::Sum, true, false);
        for v in [2, 2, 3] {
            s.update(Some(&Value::Int(v))).unwrap();
        }
        assert_eq!(s.finish(), Value::Int(5));
        let mut av = Accumulator::for_func(AggFunc::Avg, true, false);
        for v in [2, 2, 4] {
            av.update(Some(&Value::Int(v))).unwrap();
        }
        assert_eq!(av.finish(), Value::Float(3.0));
    }

    #[test]
    fn scale_equals_repeated_updates() {
        // Property behind the IVM join path: scaling a partial by m equals
        // updating it m times with the same inputs.
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let vals: Vec<Value> = [3i64, 7, 7, 11].iter().map(|&v| Value::Int(v)).collect();
            let m = 3;
            let mut scaled = acc(func);
            for v in &vals {
                scaled.update(Some(v)).unwrap();
            }
            scaled.scale(m).unwrap();
            let mut repeated = acc(func);
            for _ in 0..m {
                for v in &vals {
                    repeated.update(Some(v)).unwrap();
                }
            }
            assert_eq!(scaled.finish(), repeated.finish(), "{func:?}");
        }
    }

    #[test]
    fn scale_overflow_detected() {
        let mut a = acc(AggFunc::Sum);
        a.update(Some(&Value::Int(i64::MAX / 2))).unwrap();
        assert!(a.scale(3).is_err());
    }

    #[test]
    fn mismatched_merge_rejected() {
        let mut a = acc(AggFunc::Count);
        let b = acc(AggFunc::Sum);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn distinct_float_finish_is_first_seen_order() {
        // Float addition is not associative and a hash map iterates in a
        // per-instance order: every accumulator fed the same values must
        // still finish with the same bits — the left-to-right sum.
        let xs = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 1e-3, 3.3, 1e15, 7.77];
        for func in [
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Variance,
            AggFunc::Stddev,
        ] {
            let finish = |split: usize| {
                let mut a = Accumulator::for_func(func, true, true);
                let mut b = Accumulator::for_func(func, true, true);
                for x in &xs[..split] {
                    a.update(Some(&Value::Float(*x))).unwrap();
                }
                for x in &xs[split..] {
                    b.update(Some(&Value::Float(*x))).unwrap();
                }
                a.merge(&b).unwrap();
                match a.finish() {
                    Value::Float(f) => f.to_bits(),
                    other => panic!("{func:?}: {other:?}"),
                }
            };
            let want = finish(xs.len());
            for i in 0..50 {
                assert_eq!(finish(i % xs.len()), want, "{func:?}, accumulator {i}");
            }
            if func == AggFunc::Sum {
                let in_order = xs.iter().fold(0.0f64, |s, x| s + x);
                assert_eq!(want, in_order.to_bits());
            }
        }
    }

    /// One partial per slice, built the way a slice store builds it.
    fn partial(spec: &AggSpec, vals: &[Value]) -> Accumulator {
        let mut a = Accumulator::new(spec);
        for v in vals {
            a.update(spec.arg.as_ref().map(|_| v)).unwrap();
        }
        a
    }

    #[test]
    fn running_state_slides_like_a_fresh_merge() {
        use streamrel_sql::plan::BoundExpr;
        use streamrel_types::DataType;
        // Slices with ties, NULLs, an all-NULL slice and an empty one;
        // `0.0`/`-0.0` and repeated extremes exercise first-seen ties, 2^60
        // a sum an f64 cannot carry (and so could not give back).
        let slices: Vec<Vec<Value>> = [
            vec![5.0, 3.0, 9.0],
            vec![1152921504606846976.0, 6.0],
            vec![],
            vec![3.0, f64::NAN],
            vec![f64::NAN],
            vec![-0.0, 7.0],
            vec![0.0, 7.0],
            vec![0.0],
            vec![9.0, 9.0, 1.0],
            vec![2.0],
            vec![2.0, 8.0],
        ]
        .iter()
        .map(|s| {
            s.iter()
                .map(|x| {
                    if x.is_nan() {
                        Value::Null
                    } else {
                        Value::Float(*x)
                    }
                })
                .collect()
        })
        .collect();
        let as_int = |s: &Vec<Value>| -> Vec<Value> {
            s.iter()
                .map(|v| v.as_float().map_or(Value::Null, |f| Value::Int(f as i64)))
                .collect()
        };
        let arg = |ty| Some(BoundExpr::Column { index: 0, ty });
        let mut specs = Vec::new();
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            for distinct in [false, true] {
                specs.push(AggSpec {
                    func,
                    arg: arg(DataType::Int),
                    distinct,
                    name: "a".into(),
                    ty: DataType::Int,
                });
            }
        }
        for func in [AggFunc::Count, AggFunc::Min, AggFunc::Max] {
            specs.push(AggSpec {
                func,
                arg: arg(DataType::Float),
                distinct: false,
                name: "a".into(),
                ty: DataType::Float,
            });
        }
        specs.push(AggSpec {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
            name: "a".into(),
            ty: DataType::Int,
        });
        for spec in &specs {
            assert!(Accumulator::has_inverse(spec));
            let float = spec.arg.as_ref().is_some_and(|a| a.ty() == DataType::Float);
            let partials: Vec<Accumulator> = slices
                .iter()
                .map(|s| partial(spec, &if float { s.clone() } else { as_int(s) }))
                .collect();
            for width in 1..=4 {
                let mut run = Accumulator::running(spec);
                for hi in 0..partials.len() {
                    run.merge(&partials[hi]).unwrap();
                    let lo = (hi + 1).saturating_sub(width);
                    let mut fresh = Accumulator::new(spec);
                    for p in &partials[lo..=hi] {
                        fresh.merge(p).unwrap();
                    }
                    let want = format!("{:?}", fresh.finish());
                    assert_eq!(format!("{:?}", run.finish()), want, "{spec:?} {lo}..={hi}");
                    // Read out as a plain partial (the join path).
                    let mut plain = Accumulator::new(spec);
                    plain.merge(&run).unwrap();
                    assert_eq!(format!("{:?}", plain.finish()), want);
                    if hi + 1 >= width {
                        run.retract(&partials[lo]).unwrap();
                    }
                }
            }
        }
        // Float sums and variances have no exact inverse.
        let mut spec = specs[2].clone();
        spec.arg = arg(DataType::Float);
        assert!(!Accumulator::has_inverse(&spec));
        spec.func = AggFunc::Variance;
        spec.arg = arg(DataType::Int);
        assert!(!Accumulator::has_inverse(&spec));
        let mut var = acc(AggFunc::Variance);
        assert!(var.retract(&acc(AggFunc::Variance)).is_err());
        // A slice partial is four words: slices hold one per key per
        // aggregate, so the set and deque states stay boxed.
        assert!(std::mem::size_of::<Accumulator>() <= 32);
    }

    #[test]
    fn float_sum() {
        let mut a = Accumulator::for_func(AggFunc::Sum, false, true);
        a.update(Some(&Value::Float(1.5))).unwrap();
        a.update(Some(&Value::Int(2))).unwrap();
        assert_eq!(a.finish(), Value::Float(3.5));
    }
}
