//! The resume fetch after a crash deep into a result set.
//!
//! The paper re-positions the interrupted result set *on the server* —
//! "advancing through the result set on the server without passing tuples
//! to the client" — and shows recovery in a fraction of recompute time.
//! Phoenix resends the block's window, `LIMIT <block> OFFSET <delivered>`;
//! this bench times just the first fetch after a real crash + restart at a
//! deep position: failure detection, virtual-session recovery, the window
//! and the first row. (The client-side scan-and-discard baseline it was once compared
//! against is recorded in EXPERIMENTS.md, ablation A1.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use phoenix_bench::{load_figure2_table, BenchEnv};
use phoenix_core::PhoenixCursorKind;

fn bench_reposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("reposition");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(15));

    const ROWS: u64 = 5000;
    const POSITION: u64 = 4700;

    group.bench_function("server_side_offset", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let mut env = BenchEnv::empty();
                {
                    let mut loader = env.native();
                    load_figure2_table(&mut loader, "f2", ROWS);
                    loader.close();
                }
                let mut pc = env.phoenix(BenchEnv::bench_phoenix_config());
                let mut stmt = pc.statement();
                stmt.set_cursor_type(PhoenixCursorKind::ForwardOnly);
                // Block divides POSITION exactly: the buffer is empty at
                // the crash, so the timed fetch performs the full
                // reposition.
                stmt.set_fetch_block(50);
                stmt.execute("SELECT id, payload FROM f2").unwrap();
                for _ in 0..POSITION {
                    stmt.fetch().unwrap().unwrap();
                }
                // Force the reposition path with a real crash.
                env.harness.crash().unwrap();
                env.harness.restart().unwrap();
                let t0 = Instant::now();
                let row = stmt.fetch().unwrap().unwrap();
                total += t0.elapsed();
                assert_eq!(row[0], phoenix_storage::types::Value::Int(POSITION as i64));
                pc.close();
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reposition);
criterion_main!(benches);
