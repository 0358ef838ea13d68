//! Timing benches for the cache simulator: fetch throughput for the
//! unified, split, and reserved organizations, across geometries.
//!
//! Plain `std::time::Instant` harness (`harness = false`), printing the
//! median wall time per case — no external bench framework, so
//! `cargo bench` works offline.

use oslay_bench::timing::bench_case;
use oslay_cache::{Cache, CacheConfig, InstructionCache, ReservedCache, SplitCache};
use oslay_model::Domain;

/// A deterministic pseudo-random-ish address stream with OS/app phases,
/// loops and strides — enough structure to exercise hits, misses and
/// evictions without depending on the full pipeline.
fn address_stream(n: usize) -> Vec<(u64, Domain)> {
    let mut out = Vec::with_capacity(n);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut pc = 0u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let domain = if (i / 256) % 3 == 0 {
            Domain::App
        } else {
            Domain::Os
        };
        if x.is_multiple_of(16) {
            pc = x % (256 * 1024); // jump
        } else {
            pc += 4; // sequential fetch
        }
        let base = if domain == Domain::App {
            0x4000_0000
        } else {
            0
        };
        out.push((base + pc, domain));
    }
    out
}

fn run(cache: &mut dyn InstructionCache, stream: &[(u64, Domain)]) -> u64 {
    let mut misses = 0;
    for &(addr, domain) in stream {
        if cache.access(addr, domain).is_miss() {
            misses += 1;
        }
    }
    misses
}

fn main() {
    let stream = address_stream(100_000);
    let n = Some(stream.len() as u64);

    println!("cache/unified:");
    for cfg in [
        CacheConfig::new(8 * 1024, 32, 1),
        CacheConfig::new(8 * 1024, 32, 4),
        CacheConfig::new(32 * 1024, 64, 2),
    ] {
        bench_case(&format!("  {cfg}"), 20, n, || {
            run(&mut Cache::new(cfg), &stream)
        });
    }

    println!("cache/organizations:");
    let cfg = CacheConfig::paper_default();
    bench_case("  unified", 20, n, || run(&mut Cache::new(cfg), &stream));
    bench_case("  split", 20, n, || {
        run(&mut SplitCache::halves_of(cfg), &stream)
    });
    bench_case("  reserved", 20, n, || {
        run(&mut ReservedCache::paired_with(cfg, 0..1024), &stream)
    });
}
