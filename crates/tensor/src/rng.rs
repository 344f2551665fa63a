//! Seedable randomness for experiments: uniform and Gaussian sampling.
//!
//! Implemented from scratch on xoshiro256++ (seeded through SplitMix64)
//! because no external `rand`/`rand_distr` crates are part of the approved
//! dependency set for this reproduction.

use crate::parallel::par_chunks_mut;
use std::sync::OnceLock;

/// A seedable random-number generator with Gaussian samplers.
///
/// Wraps a local xoshiro256++ core (cloneable, so experiments can snapshot
/// generator state). Normal samples come from two samplers:
///
/// * [`DivaRng::gaussian`] / [`DivaRng::standard_normal`]: one sample at a
///   time by Box–Muller on this generator's own stream. Synthetic
///   datasets and weight initialization use these.
/// * [`DivaRng::add_gaussian`]: bulk noise for the DP Gaussian mechanism.
///   A Ziggurat sampler over chunk-keyed streams, so it runs in parallel
///   and stays byte-identical at any thread count.
///
/// All stochastic components of the repo take a `&mut DivaRng` so that
/// every experiment is reproducible from a single `u64` seed.
///
/// # Example
///
/// ```
/// use diva_tensor::DivaRng;
/// let mut a = DivaRng::seed_from_u64(42);
/// let mut b = DivaRng::seed_from_u64(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct DivaRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare: Option<f64>,
}

/// The SplitMix64 increment (the golden-ratio constant).
const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step: expands one 64-bit seed into a well-mixed stream, the
/// standard way of seeding xoshiro state (Blackman & Vigna).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Coordinates per [`DivaRng::add_gaussian`] chunk. Each chunk has its own
/// stream, so this constant (not the thread count) fixes which draws land
/// where; changing it changes every noise value.
const NOISE_CHUNK: usize = 4096;

/// Coordinates whose first Ziggurat candidates are drawn together, ahead
/// of sampling (part of the draw order, like [`NOISE_CHUNK`]).
const NOISE_BLOCK: usize = 64;

/// Where the tail of the 256-layer normal Ziggurat starts (Marsaglia &
/// Tsang 2000): the rightmost layer edge.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The area of each Ziggurat layer:
/// `R·f(R) + ∫_R^∞ f = R·e^(−R²/2) + √(π/2)·erfc(R/√2)` with
/// `f(x) = e^(−x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_974_658;

/// The 256-layer Ziggurat for the unnormalized normal density `f`.
struct Ziggurat {
    /// `x[0] = V/f(R)` (the base layer's width, rectangle plus tail),
    /// `x[1] = R`, decreasing to `x[256] = 0`. Layer `i` spans
    /// `[0, x[i])` horizontally and `[f(x[i]), f(x[i+1])]` vertically.
    x: [f64; 257],
    /// `f(x[i])`.
    f: [f64; 257],
}

impl Ziggurat {
    /// The tables, built once from `R` and `V` by the equal-area recursion
    /// `x[i+1] = f⁻¹(V/x[i] + f(x[i]))`.
    fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let f = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; 257];
            x[0] = ZIG_V / f(ZIG_R);
            x[1] = ZIG_R;
            for i in 2..256 {
                x[i] = (-2.0 * (ZIG_V / x[i - 1] + f(x[i - 1])).ln()).sqrt();
            }
            Self { x, f: x.map(f) }
        })
    }

    /// One `u64` picks the layer `i` (low 8 bits) and a signed position
    /// `u ∈ [−1, 1)` (top 53 bits); the candidate is `x = u·x[i]`.
    #[inline(always)]
    fn candidate(&self, bits: u64) -> (usize, f64, f64) {
        let i = (bits & 0xff) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
        (i, u, u * self.x[i])
    }

    /// The fast path, which ends about 99% of draws: the candidate from
    /// `bits` if it lies in its layer's inner rectangle, else NaN (a
    /// candidate itself is never NaN). Branch-free, so a block of them
    /// vectorizes.
    #[inline(always)]
    fn fast(&self, bits: u64) -> f64 {
        let (i, _, x) = self.candidate(bits);
        if x.abs() < self.x[i + 1] {
            x
        } else {
            f64::NAN
        }
    }

    /// The slow path for a candidate the fast path rejected: the exact
    /// tail for the base layer, the wedge test under `f` otherwise, and
    /// fresh candidates from `rng` until one is accepted.
    #[cold]
    #[inline(never)]
    fn retry(&self, bits: u64, rng: &mut DivaRng) -> f64 {
        let (mut i, mut u, mut x) = self.candidate(bits);
        loop {
            if i == 0 {
                return Self::tail(rng, u);
            }
            let y = self.f[i] + (self.f[i + 1] - self.f[i]) * rng.next_f64();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
            (i, u, x) = self.candidate(rng.next_u64());
            if x.abs() < self.x[i + 1] {
                return x;
            }
        }
    }

    /// A sample from the normal tail beyond `R`, with the sign of `u`
    /// (Marsaglia 1964; exact, not a truncation).
    fn tail(rng: &mut DivaRng, u: f64) -> f64 {
        loop {
            // `1 − [0, 1)` is in `(0, 1]`, so both logarithms are finite.
            let x = -(1.0 - rng.next_f64()).ln() / ZIG_R;
            let y = -(1.0 - rng.next_f64()).ln();
            if 2.0 * y >= x * x {
                return if u < 0.0 { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }
}

impl DivaRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state, spare: None }
    }

    /// The xoshiro256++ next-u64 step.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` using the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f32` in `[0, 1)` using the top 24 bits.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Draws a uniform sample from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "uniform bounds reversed: {lo} > {hi}");
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.next_f32()
    }

    /// Draws a uniform integer from `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Lemire-style widening multiply maps a u64 to [0, n) with
        // negligible bias for the n used here (dataset/batch indices).
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Draws a sample from the normal distribution `N(mean, std²)` using the
    /// Box–Muller transform.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn gaussian(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "negative standard deviation: {std}");
        let z = self.standard_normal();
        mean + std * z
    }

    /// Draws a standard normal `N(0, 1)` sample.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // Box–Muller: two uniforms -> two independent standard normals.
        // u1 is kept away from 0 so that ln(u1) is finite.
        let u1: f64 = loop {
            let u: f64 = self.next_f64();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.next_f64();
        let r = (-2.0f64 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Adds `std · z` to every element of `out`, with `z` i.i.d. standard
    /// normal: the bulk noise of the DP Gaussian mechanism.
    ///
    /// Draws exactly one `u64` key from `self`, so replaying from a cloned
    /// generator replays the noise. The slice is split into fixed chunks of
    /// 4096 coordinates. Chunk `c` draws from its own xoshiro256++ stream,
    /// seeded through SplitMix64 from `(key, c)`, with a 256-layer Ziggurat
    /// sampler in f64 (Marsaglia & Tsang 2000, exact tail): the first
    /// candidates of each 64-coordinate block are drawn together, then the
    /// rejected ones retry in coordinate order. The chunks fan out over the
    /// installed [`crate::Backend`]; neither their boundaries nor their
    /// streams depend on the thread count, so the result is byte-identical
    /// at any width.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative.
    pub fn add_gaussian(&mut self, out: &mut [f32], std: f64) {
        assert!(std >= 0.0, "negative standard deviation: {std}");
        let key = self.next_u64();
        let zig = Ziggurat::get();
        par_chunks_mut(out, NOISE_CHUNK, |c, chunk| {
            // Chunk c's state is outputs 4c .. 4c+3 of the SplitMix64
            // sequence started at `key`: no two chunks share a state word.
            let mut stream =
                Self::seed_from_u64(key.wrapping_add((4 * c as u64).wrapping_mul(SPLITMIX_GAMMA)));
            let mut bits = [0u64; NOISE_BLOCK];
            let mut fast = [0f64; NOISE_BLOCK];
            for block in chunk.chunks_mut(NOISE_BLOCK) {
                let n = block.len();
                // Every coordinate's first candidate, drawn in a loop free
                // of calls so the generator state stays in registers.
                for b in &mut bits[..n] {
                    *b = stream.next_u64();
                }
                for (z, &b) in fast[..n].iter_mut().zip(&bits[..n]) {
                    *z = zig.fast(b);
                }
                // Rejected candidates retry in coordinate order, continuing
                // the same stream.
                for ((v, &z), &b) in block.iter_mut().zip(&fast[..n]).zip(&bits[..n]) {
                    let z = if z.is_nan() {
                        zig.retry(b, &mut stream)
                    } else {
                        z
                    };
                    *v += (std * z) as f32;
                }
            }
        });
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Derives an independent child generator (for splitting a seed across
    /// parallel components without correlating their streams).
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = DivaRng::seed_from_u64(1);
        let mut b = DivaRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = DivaRng::seed_from_u64(1234);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 9.0).abs() < 0.2, "variance was {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = DivaRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn index_respects_bounds_and_covers_range() {
        let mut rng = DivaRng::seed_from_u64(10);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let i = rng.index(8);
            assert!(i < 8);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "index never hit some bucket");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DivaRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Noise lengths around the chunk boundaries.
    const NOISE_LENS: [usize; 6] = [
        0,
        1,
        NOISE_CHUNK - 1,
        NOISE_CHUNK,
        NOISE_CHUNK + 1,
        3 * NOISE_CHUNK + 17,
    ];

    fn noise_bits(backend: crate::Backend, len: usize) -> Vec<u32> {
        let mut out = vec![0.5f32; len];
        backend.install(|| DivaRng::seed_from_u64(77).add_gaussian(&mut out, 1.3));
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn add_gaussian_is_byte_identical_at_any_thread_count() {
        use crate::Backend;
        for len in NOISE_LENS {
            let serial = noise_bits(Backend::serial(), len);
            for threads in [2, 3, 4] {
                assert_eq!(
                    serial,
                    noise_bits(Backend::with_threads(threads), len),
                    "len {len}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn add_gaussian_draws_one_key() {
        for len in NOISE_LENS {
            let mut rng = DivaRng::seed_from_u64(8);
            let mut expected = rng.clone();
            expected.next_u64();
            rng.add_gaussian(&mut vec![0.0; len], 1.0);
            assert_eq!(rng.state, expected.state, "len {len}");
        }
    }

    #[test]
    fn chunks_draw_distinct_streams() {
        let mut out = vec![0.0f32; 2 * NOISE_CHUNK];
        DivaRng::seed_from_u64(3).add_gaussian(&mut out, 1.0);
        let (a, b) = out.split_at(NOISE_CHUNK);
        assert_ne!(a, b);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ziggurat_tables_close_at_the_top() {
        let zig = Ziggurat::get();
        assert_eq!(zig.x[1], ZIG_R);
        assert!(zig.x.windows(2).all(|w| w[0] > w[1]), "edges must decrease");
        // The top layer (from f(x[255]) to f(0) = 1) has area V too.
        let top = zig.x[255] * (1.0 - zig.f[255]);
        assert!((top - ZIG_V).abs() < 1e-12, "top layer area {top}");
    }

    #[test]
    fn fork_decorrelates_streams() {
        let mut parent = DivaRng::seed_from_u64(5);
        let mut child = parent.fork();
        // Not a statistical test; just checks the streams are not identical.
        let a: Vec<f64> = (0..8).map(|_| parent.standard_normal()).collect();
        let b: Vec<f64> = (0..8).map(|_| child.standard_normal()).collect();
        assert_ne!(a, b);
    }
}
