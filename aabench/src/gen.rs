//! Seeded input generators. Every workload input is a pure function of
//! `(sizes, seed)`; the library under test only ever sees the generated
//! arrays and tables.

use aarray_algebra::pairs::PlusTimes;
use aarray_algebra::values::nn::{nn, NN};
use aarray_core::AArray;
use aarray_d4m::Table;

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one `seed`, so that
    /// inputs drawn for different purposes do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct values of `0..n`, ascending.
    fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..k).map(|_| self.below(n)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Track key of track number `k`. Ordered tracks use multiples of 10,
/// so `k * 10 + 5` (see [`StreamBatches`]) sorts between two of them.
fn track_key(slot: usize) -> String {
    format!("t{:09}", slot)
}

/// Genre and writer incidence rows of one track: 1–2 genres of
/// `genres` with weights 1–4, and 1–3 writers of `writers` with unit
/// weight — Figure 2's `E1`/`E2` shape, re-weighted as in Figure 4.
fn track_rows(
    rng: &mut Rng,
    key: &str,
    genres: usize,
    writers: usize,
    e1: &mut Vec<(String, String, NN)>,
    e2: &mut Vec<(String, String, NN)>,
) {
    let n_g = 1 + rng.below(2);
    for g in rng.distinct(n_g, genres) {
        let w = 1 + rng.below(4);
        e1.push((key.to_string(), format!("Genre|G{:02}", g), nn(w as f64)));
    }
    let n_w = 1 + rng.below(3);
    for w in rng.distinct(n_w, writers) {
        e2.push((key.to_string(), format!("Writer|W{:03}", w), nn(1.0)));
    }
}

/// Track-indexed `(E1, E2)`: tracks × genres and tracks × writers.
pub fn music_e1_e2(
    tracks: usize,
    genres: usize,
    writers: usize,
    seed: u64,
) -> (AArray<NN>, AArray<NN>) {
    let mut rng = Rng::new(seed, 1);
    let (mut e1, mut e2) = (Vec::new(), Vec::new());
    for k in 0..tracks {
        track_rows(
            &mut rng,
            &track_key(k * 10),
            genres,
            writers,
            &mut e1,
            &mut e2,
        );
    }
    let pair = PlusTimes::<NN>::new();
    (
        AArray::from_triples(&pair, e1),
        AArray::from_triples(&pair, e2),
    )
}

/// A raw 7-field music table like Figure 1's, before explosion.
pub fn music_table(rows: usize, genres: usize, writers: usize, seed: u64) -> Table {
    let mut rng = Rng::new(seed, 2);
    let mut t = Table::new([
        "Artist", "Date", "Genre", "Label", "Release", "Type", "Writer",
    ]);
    for k in 0..rows {
        let n_g = 1 + rng.below(2);
        let gs = rng.distinct(n_g, genres);
        let n_w = 1 + rng.below(3);
        let ws = rng.distinct(n_w, writers);
        t.push_row(
            track_key(k * 10),
            vec![
                vec![format!("Artist{:03}", rng.below(64))],
                vec![format!(
                    "2020-{:02}-{:02}",
                    rng.below(12) + 1,
                    rng.below(28) + 1
                )],
                gs.iter().map(|g| format!("G{:02}", g)).collect(),
                vec![format!("Label{:02}", rng.below(24))],
                vec![format!("Release{:04}", rng.below(500))],
                vec!["Single".to_string()],
                ws.iter().map(|w| format!("W{:03}", w)).collect(),
            ],
        );
    }
    t
}

/// Edge-indexed R-MAT incidence `(Eout, Ein)` with `2^scale` vertices
/// and `edge_factor · 2^scale` edges, drawn with the Graph500
/// quadrant probabilities (0.57, 0.19, 0.19, 0.05). Each edge carries
/// a seeded weight in `[0.5, 4)` on both sides.
pub fn rmat(scale: u32, edge_factor: usize, seed: u64) -> (AArray<NN>, AArray<NN>) {
    let mut rng = Rng::new(seed, 3);
    let n_edges = edge_factor << scale;
    let (mut eout, mut ein) = (Vec::with_capacity(n_edges), Vec::with_capacity(n_edges));
    for e in 0..n_edges {
        let (mut src, mut dst) = (0usize, 0usize);
        for _ in 0..scale {
            let p = rng.unit();
            let (s, d) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            src = (src << 1) | s;
            dst = (dst << 1) | d;
        }
        let key = format!("e{:08}", e);
        eout.push((
            key.clone(),
            format!("v{:06}", src),
            nn(0.5 + 3.5 * rng.unit()),
        ));
        ein.push((key, format!("v{:06}", dst), nn(0.5 + 3.5 * rng.unit())));
    }
    let pair = PlusTimes::<NN>::new();
    (
        AArray::from_triples(&pair, eout),
        AArray::from_triples(&pair, ein),
    )
}

/// One appended stream batch: its `(ΔE1, ΔE2)` blocks and whether its
/// track keys interleave earlier ones.
pub struct Batch {
    pub d_out: AArray<NN>,
    pub d_in: AArray<NN>,
    pub interleaved: bool,
}

/// The stream workload's inputs: an initial incidence pair and the
/// batches appended to it, generated directly (never by filtering a
/// larger table), so generation is linear in the total row count.
pub struct StreamBatches {
    pub e1: AArray<NN>,
    pub e2: AArray<NN>,
    pub batches: Vec<Batch>,
}

/// `initial` tracks, then `n_batches` batches of `batch` tracks. Batch
/// `b` with `b % every == every / 2` draws fresh keys that sort between
/// existing initial tracks (`BatchKind::OutOfOrder`); every other batch
/// continues the ascending key sequence.
pub fn stream(
    initial: usize,
    n_batches: usize,
    batch: usize,
    every: usize,
    genres: usize,
    writers: usize,
    seed: u64,
) -> StreamBatches {
    let (e1, e2) = music_e1_e2(initial, genres, writers, seed);
    let mut rng = Rng::new(seed, 4);
    // Interleaving slots: a seeded permutation of the initial tracks,
    // consumed in order so no key is ever drawn twice.
    let mut slots: Vec<usize> = (0..initial).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.below(i + 1));
    }
    let mut slots = slots.into_iter();
    let mut next_track = initial;
    let pair = PlusTimes::<NN>::new();
    let batches = (0..n_batches)
        .map(|b| {
            let interleaved = b % every == every / 2;
            let (mut d1, mut d2) = (Vec::new(), Vec::new());
            for _ in 0..batch {
                let slot = if interleaved {
                    slots
                        .next()
                        .expect("fewer interleaved tracks than initial tracks")
                        * 10
                        + 5
                } else {
                    next_track += 1;
                    (next_track - 1) * 10
                };
                track_rows(
                    &mut rng,
                    &track_key(slot),
                    genres,
                    writers,
                    &mut d1,
                    &mut d2,
                );
            }
            Batch {
                d_out: AArray::from_triples(&pair, d1),
                d_in: AArray::from_triples(&pair, d2),
                interleaved,
            }
        })
        .collect();
    StreamBatches { e1, e2, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{digest, Digest};

    /// Digests of everything one workload's generator returns.
    fn inputs(workload: &str, seed: u64) -> Vec<Digest> {
        match workload {
            "seven-pair" => {
                let (e1, e2) = music_e1_e2(500, 8, 100, seed);
                vec![digest(&e1), digest(&e2)]
            }
            "rmat-graph" => {
                let (eout, ein) = rmat(8, 8, seed);
                vec![digest(&eout), digest(&ein)]
            }
            "stream-ingest" => {
                let s = stream(500, 20, 50, 10, 8, 100, seed);
                let mut d = vec![digest(&s.e1), digest(&s.e2)];
                for b in &s.batches {
                    d.extend([digest(&b.d_out), digest(&b.d_in)]);
                }
                d
            }
            _ => vec![digest(&music_table(500, 8, 100, seed).explode())],
        }
    }

    #[test]
    fn every_generator_is_a_function_of_its_seed() {
        for w in ["seven-pair", "rmat-graph", "stream-ingest", "d4m-pipeline"] {
            assert_eq!(inputs(w, 5), inputs(w, 5), "{w}: same seed");
            assert_ne!(inputs(w, 5), inputs(w, 6), "{w}: other seed");
        }
    }
}
