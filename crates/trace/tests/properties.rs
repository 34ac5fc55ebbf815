//! Randomized property tests for the packed trace pipeline: conversions
//! between the wide and packed record forms must be lossless, the
//! streaming sink must reproduce the batch builder for any emission
//! pattern, and the round-robin merge must agree with a naive reference.
//! Inputs are drawn from a deterministic family of seeds so failures
//! reproduce exactly.

use std::sync::mpsc::sync_channel;

use stacksim_rng::StdRng;
use stacksim_trace::{
    CpuId, MemOp, Merge, PackedRecord, RecordBlock, RecordId, RecordSink, StreamBuilder, Trace,
    TraceBuilder, TraceRecord,
};

fn any_op(rng: &mut StdRng) -> MemOp {
    match rng.gen_range(0..3u32) {
        0 => MemOp::Load,
        1 => MemOp::Store,
        _ => MemOp::IFetch,
    }
}

/// A random record at position `id` whose dependency (if any) points a
/// random distance backwards, occasionally the full `u32` range.
fn any_record(rng: &mut StdRng, id: u64) -> TraceRecord {
    let dep = if id > 0 && rng.gen_range(0..4u32) != 0 {
        let span = id.min(u64::from(u32::MAX));
        Some(RecordId::new(id - rng.gen_range(1..=span)))
    } else {
        None
    };
    TraceRecord {
        id: RecordId::new(id),
        cpu: CpuId::new(rng.gen_range(0..256u32) as u8),
        op: any_op(rng),
        addr: rng.gen_range(0..u64::MAX),
        ip: rng.gen_range(0..u64::MAX),
        dep,
    }
}

/// `pack_at` followed by `unpack` is the identity on any well-formed
/// record, at any position — including positions beyond the `u32` range,
/// where only the *distance* must fit.
#[test]
fn packed_record_roundtrips_any_record() {
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x9ac4ed ^ case);
        for _ in 0..512 {
            let id = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..64u64),
                1 => rng.gen_range(0..1 << 20u64),
                _ => rng.gen_range(0..u64::MAX / 2) + u64::from(u32::MAX),
            };
            let r = any_record(&mut rng, id);
            let p = PackedRecord::pack_at(id, &r);
            assert_eq!(p.unpack(id), r, "record {r:?}");
        }
    }
}

/// Converting a whole well-formed trace to packed storage and back is
/// lossless, and the O(1) aggregates match a recomputation from the wide
/// records.
#[test]
fn trace_from_records_is_lossless() {
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0x7ace5 ^ case);
        let n = rng.gen_range(1..2_000u64);
        let records: Vec<TraceRecord> = (0..n).map(|id| any_record(&mut rng, id)).collect();
        let trace = Trace::from_records(records.clone());
        assert!(trace.validate().is_ok());
        assert_eq!(trace.to_records(), records);
        let max_dep = records
            .iter()
            .filter_map(|r| r.dep.map(|d| (r.id.raw() - d.raw()) as u32))
            .max()
            .unwrap_or(0);
        assert_eq!(trace.max_dep_offset(), max_dep);
        let cpus = records.iter().map(|r| u32::from(r.cpu.raw()) + 1).max();
        assert_eq!(trace.cpu_count(), cpus.unwrap_or(0) as usize);
    }
}

/// Random `get` agrees with the materialised records.
#[test]
fn random_access_matches_iteration() {
    let mut rng = StdRng::seed_from_u64(0x6e7);
    let records: Vec<TraceRecord> = (0..500).map(|id| any_record(&mut rng, id)).collect();
    let trace = Trace::from_records(records.clone());
    for _ in 0..200 {
        let i = rng.gen_range(0..records.len());
        assert_eq!(trace.get(RecordId::new(i as u64)), Some(records[i]));
    }
    assert_eq!(trace.get(RecordId::new(records.len() as u64)), None);
}

/// For any random emission pattern and block size, the stream sink's
/// concatenated blocks equal the batch builder's trace bit for bit.
#[test]
fn stream_builder_matches_batch_for_random_emissions() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x57_3a ^ case);
        let n = rng.gen_range(1..3_000u64);
        let emissions: Vec<TraceRecord> = (0..n)
            .map(|id| {
                let mut r = any_record(&mut rng, id);
                // keep dependencies inside the emitted prefix
                if let Some(d) = r.dep {
                    r.dep = Some(RecordId::new(d.raw().min(id.saturating_sub(1))));
                }
                r
            })
            .collect();
        let block_len = rng.gen_range(1..512usize);

        let mut batch = TraceBuilder::new();
        for r in &emissions {
            batch.record_dep(r.cpu, r.op, r.addr, r.ip, r.dep);
        }

        let (tx, rx) = sync_channel(4);
        let sent = emissions.clone();
        let producer = std::thread::spawn(move || {
            let mut s = StreamBuilder::new(tx, block_len);
            for r in &sent {
                s.record_dep(r.cpu, r.op, r.addr, r.ip, r.dep);
            }
            s.finish();
        });
        let packed: Vec<PackedRecord> = rx.into_iter().flatten().collect();
        producer.join().unwrap();
        assert_eq!(
            Trace::from_packed(packed),
            batch.build(),
            "case {case}, block_len {block_len}"
        );
    }
}

/// The round-robin merge, naively: whole thread traces and the merged
/// position of every record of every thread.
fn naive_merge(threads: &[Trace], chunk: usize) -> Vec<PackedRecord> {
    let mut out: Vec<PackedRecord> = Vec::new();
    let mut maps: Vec<Vec<usize>> = vec![Vec::new(); threads.len()];
    let mut cursors = vec![0usize; threads.len()];
    loop {
        let mut progressed = false;
        for (ti, t) in threads.iter().enumerate() {
            let end = (cursors[ti] + chunk).min(t.len());
            for (src, p) in t.packed().iter().enumerate().take(end).skip(cursors[ti]) {
                let pos = out.len();
                maps[ti].push(pos);
                let dep = if p.has_dep() {
                    (pos - maps[ti][src - p.dep_offset() as usize]) as u32
                } else {
                    0
                };
                out.push(PackedRecord::new(
                    CpuId::new(ti as u8),
                    p.op(),
                    p.addr,
                    p.ip,
                    dep,
                ));
                progressed = true;
            }
            cursors[ti] = end;
        }
        if !progressed {
            return out;
        }
    }
}

/// A random thread trace of `n` records, each depending on a random
/// earlier record half the time.
fn any_thread(rng: &mut StdRng, n: u64) -> Trace {
    let mut b = TraceBuilder::new();
    for id in 0..n {
        let dep = (id > 0 && rng.gen_bool(0.5)).then(|| RecordId::new(rng.gen_range(0..id)));
        let cpu = CpuId::new(rng.gen_range(0..4u32) as u8);
        b.record_dep(cpu, any_op(rng), rng.gen_range(0..1 << 40), id, dep);
    }
    b.build()
}

/// For random thread traces with dependencies, including empty and uneven
/// threads, the merge equals the naive reference at every chunk and
/// source block length, however its output is cut. Each thread's records
/// come back out of the merged trace unchanged but for their cpu label.
#[test]
fn merge_matches_the_naive_round_robin() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x3e76e ^ case);
        let threads: Vec<Trace> = (0..rng.gen_range(1..=5usize))
            .map(|_| {
                let n = if rng.gen_bool(0.2) {
                    0
                } else {
                    rng.gen_range(1..600u64)
                };
                any_thread(&mut rng, n)
            })
            .collect();
        let dep_bound = threads.iter().map(Trace::max_dep_offset).max().unwrap_or(0);
        for chunk in [1usize, 7, 32] {
            let expected = naive_merge(&threads, chunk);
            for block_len in [1usize, 7, 4096] {
                let sources = threads.iter().map(|t| {
                    let blocks: Vec<RecordBlock> =
                        t.packed().chunks(block_len).map(<[_]>::to_vec).collect();
                    blocks.into_iter()
                });
                let mut merge = Merge::new(sources, chunk, dep_bound as usize);
                let mut merged = Vec::new();
                loop {
                    let before = merged.len();
                    let max = rng.gen_range(1..100usize);
                    merge.fill(&mut merged, max);
                    if merged.len() - before < max {
                        break;
                    }
                }
                let what = format!("case {case}, chunk {chunk}, block_len {block_len}");
                assert_eq!(merged, expected, "{what}");
                assert_eq!(merge.merged(), merged.len() as u64, "{what}");
                let merged = Trace::from_packed(merged);
                for (ti, t) in threads.iter().enumerate() {
                    let cpu = CpuId::new(ti as u8);
                    let relabelled: Trace = t
                        .packed()
                        .iter()
                        .map(|p| PackedRecord::new(cpu, p.op(), p.addr, p.ip, p.dep_offset()))
                        .collect();
                    assert_eq!(merged.per_cpu(cpu), relabelled, "{what}, thread {ti}");
                }
            }
        }
    }
    let mut none = Merge::new(Vec::<std::vec::IntoIter<RecordBlock>>::new(), 1, 0);
    let mut merged = Vec::new();
    none.fill(&mut merged, 8);
    assert!(merged.is_empty());
}
