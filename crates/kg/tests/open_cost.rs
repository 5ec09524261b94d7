//! Ignored-by-default breakdown of MappedGraph::open cost (run manually:
//! `cargo test -p cf-kg --release --test open_cost -- --ignored --nocapture`).
use cf_check::TempDir;
use cf_kg::synth::{large_sim, LargeScale};
use cf_kg::{write_store, MappedGraph};
use cf_rand::rngs::StdRng;
use cf_rand::SeedableRng;
use std::time::Instant;

#[test]
#[ignore]
fn open_cost_breakdown() {
    let scale = LargeScale::million();
    let g = large_sim(scale, &mut StdRng::seed_from_u64(7));
    let dir = TempDir::new("kg_opencost");
    let path = dir.join("million.cfkg");
    write_store(&g, &path).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    // warm cache
    let _ = MappedGraph::open(&path).unwrap();
    for _ in 0..3 {
        let t = Instant::now();
        let map = cf_kg::mmapio::Mmap::open(&path).unwrap();
        let map_s = t.elapsed().as_secs_f64();
        // Raw read bandwidth over the mapping: the floor `open` approaches
        // as its CRC + structural scans fuse into one pass.
        let t2 = Instant::now();
        let mut s = [0u64; 8];
        for c in map.chunks_exact(64) {
            for (i, lane) in s.iter_mut().enumerate() {
                *lane =
                    lane.wrapping_add(u64::from_le_bytes(c[8 * i..8 * i + 8].try_into().unwrap()));
            }
        }
        std::hint::black_box(s);
        let sweep_s = t2.elapsed().as_secs_f64();
        println!(
            "  mapped sweep {:.1} ms ({:.2} GB/s)",
            sweep_s * 1e3,
            bytes as f64 / sweep_s / 1e9
        );
        drop(map);
        let t = Instant::now();
        let m = MappedGraph::open(&path).unwrap();
        let open_s = t.elapsed().as_secs_f64();
        println!(
            "store {} MB: map {:.1} ms, open {:.1} ms ({:.2} GB/s)",
            bytes / (1 << 20),
            map_s * 1e3,
            open_s * 1e3,
            bytes as f64 / open_s / 1e9
        );
        drop(m);
    }
}
