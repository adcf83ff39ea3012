//! Parallel deduplication over an ALTER collection class — the pattern of
//! the Genome benchmark applied to a word list.
//!
//! ```text
//! cargo run --example wordlist
//! ```
//!
//! A shared `AlterHashSet` deduplicates a stream of words. Every insert
//! reads a bucket and then writes it, so OutOfOrder and StaleReads produce
//! identical results while StaleReads skips read instrumentation entirely;
//! two inserts conflict (and one retries) exactly when concurrent chunks
//! hash into the same bucket.

use alter::collections::AlterHashSet;
use alter::heap::Heap;
use alter::runtime::{Driver, ExecParams, LoopBuilder};
use alter::sim::{CostModel, SimObserver};

fn words() -> Vec<&'static str> {
    let text = "the quick brown fox jumps over the lazy dog while the dog \
                dreams of the quick red fox and the fox of the lazy moon \
                over the brown hill where the quick moon jumps the hill";
    text.split_whitespace().collect()
}

fn key_of(word: &str) -> i64 {
    // FNV-1a over the bytes: a stand-in for interning.
    let mut h: i64 = 0x1125_3715;
    for b in word.bytes() {
        h = (h ^ i64::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let words = words();
    let keys: Vec<i64> = words.iter().map(|w| key_of(w)).collect();

    let mut heap = Heap::new();
    let set = AlterHashSet::new(&mut heap, 64, 4);

    // Threaded execution for the dedup itself ...
    let params = ExecParams::new(4, 4);
    let stats = LoopBuilder::new(&params).range(0, keys.len() as u64).run(
        &mut heap,
        Driver::threaded(),
        |ctx, i| {
            set.insert(ctx, keys[i as usize]);
        },
    )?;
    let distinct = set.seq_len(&heap);
    println!(
        "{} words, {} distinct ({} transactions, {} retries)",
        words.len(),
        distinct,
        stats.attempts,
        stats.retries()
    );

    // ... and the same loop on the simulated multicore for a speedup
    // estimate (identical committed state, by determinism).
    let mut heap2 = Heap::new();
    let set2 = AlterHashSet::new(&mut heap2, 64, 4);
    let model = CostModel::default();
    let mut obs = SimObserver::new(&model, params.workers);
    LoopBuilder::new(&params)
        .range(0, keys.len() as u64)
        .observer(&mut obs)
        .run(&mut heap2, Driver::sequential(), |ctx, i| {
            ctx.tx.work(32);
            set2.insert(ctx, keys[i as usize]);
        })?;
    let clock = obs.into_clock();
    assert_eq!(
        set2.seq_len(&heap2),
        distinct,
        "deterministic across drivers"
    );
    println!("simulated speedup on 4 cores: {:.2}x", clock.speedup());
    Ok(())
}
