//! CRC-32 (IEEE 802.3 polynomial, reflected) used to frame WAL records and
//! seal snapshot files.
//!
//! A torn write at the log tail — the normal outcome of crashing mid-append —
//! must be detected and treated as end-of-log. Length framing alone cannot
//! distinguish a half-written record from a corrupt one; the checksum can.
//!
//! Two kernels compute the same function:
//!
//! * **Carry-less multiply** (x86-64 with PCLMULQDQ, detected once per
//!   process): four 128-bit lanes each fold 64 bytes a step into the
//!   running remainder, the lanes fold into one, and a Barrett reduction
//!   takes its 64 bits to the 32-bit CRC (Gopal et al., *Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ*, Intel, 2009).
//!   Its folding constants are derived from the polynomial at compile time.
//!   It runs on inputs of at least `CLMUL_MIN` (32) bytes; the bytes past the
//!   last whole 16-byte block go through the tables.
//! * **Slicing-by-8**: table `k` holds the CRC of a byte followed by `k`
//!   zero bytes, so the eight lookups of one step are independent of each
//!   other instead of forming the byte-at-a-time loop's serial chain. It is
//!   the fallback on every other host and for short inputs, and the oracle
//!   the carry-less kernel is tested against.
//!
//! Same polynomial, same values: every frame and segment seal is
//! byte-identical whichever kernel computed it.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC register after byte `b` and then `k` zero bytes.
/// `TABLES[0]` is the classic byte-at-a-time table. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Shortest input the carry-less kernel takes: below it, the fixed cost of
/// the final reduction outweighs what folding saves. From 32 bytes up, one
/// lane already beats the tables: a log of 17-byte commit frames and
/// 58-byte row frames checksums in 0.28 ms per MB with this bound, 0.43 ms
/// with 16, 0.54 ms with 64 and 0.66 ms with the tables alone (2-vCPU x86-64
/// host, median of 301 passes).
const CLMUL_MIN: usize = 32;

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_resume(0, data)
}

/// The CRC-32 of `a` followed by `data`, given `crc`, the CRC-32 of `a`:
/// how a file read or written a piece at a time is checksummed. `crc32(x)`
/// is `crc32_resume(0, x)`.
pub fn crc32_resume(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && *clmul::DETECTED {
        // SAFETY: the CPU has PCLMULQDQ, the one feature the kernel enables
        // beyond the x86-64 baseline.
        return unsafe { clmul::crc32_resume(crc, data) };
    }
    crc32_tables(crc, data)
}

/// [`crc32_resume`] by slicing-by-8, on any host and any length.
fn crc32_tables(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The carry-less-multiply kernel. In the reflected domain a constant is
/// `reflect(x^n mod P) << 1`: multiplying a 128-bit lane by the pair for
/// `n = 4·128 ± 32` moves it 512 bits along the message (four lanes), by
/// the pair for `128 ± 32` one lane; `x^64 mod P` takes the last 96 bits to
/// 64, and `μ = x^64 div P` with `P` itself is the Barrett pair.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;
    use std::sync::LazyLock;

    /// The IEEE polynomial with its `x^32` term, unreflected.
    const P: u64 = 0x1_04C1_1DB7;

    /// `x^n mod P`.
    const fn x_pow_mod(n: u32) -> u64 {
        let mut r = 1u64;
        let mut i = 0;
        while i < n {
            r <<= 1;
            if r & (1 << 32) != 0 {
                r ^= P;
            }
            i += 1;
        }
        r
    }

    /// A folding constant: `x^n mod P`, reflected, times `x`.
    const fn fold(n: u32) -> i64 {
        ((x_pow_mod(n) as u32).reverse_bits() as i64) << 1
    }

    /// `x^64 div P`, 33 bits.
    const fn mu() -> u64 {
        let (mut rem, mut q) = (1u128 << 64, 0u64);
        let mut bit = 32;
        loop {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= (P as u128) << bit;
                q |= 1 << bit;
            }
            if bit == 0 {
                return q;
            }
            bit -= 1;
        }
    }

    const K1: i64 = fold(4 * 128 + 32);
    const K2: i64 = fold(4 * 128 - 32);
    const K3: i64 = fold(128 + 32);
    const K4: i64 = fold(128 - 32);
    const K5: i64 = fold(64);
    /// `P` and `μ`, each reflected over its 33 bits.
    const P_R: i64 = (P.reverse_bits() >> 31) as i64;
    const MU_R: i64 = (mu().reverse_bits() >> 31) as i64;

    /// Whether this CPU has PCLMULQDQ, asked once per process.
    pub(super) static DETECTED: LazyLock<bool> =
        LazyLock::new(|| std::is_x86_feature_detected!("pclmulqdq"));

    /// [`super::crc32_resume`]: four lanes from 64 bytes up, one from 16,
    /// and the tables below that.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn crc32_resume(crc: u32, data: &[u8]) -> u32 {
        if data.len() < 16 {
            return super::crc32_tables(crc, data);
        }
        // The 16 bytes at `at`, first byte lowest.
        macro_rules! block {
            ($at:expr) => {{
                let (lo, hi) = data[$at..$at + 16].split_at(8);
                _mm_set_epi64x(
                    i64::from_le_bytes(hi.try_into().expect("eight bytes")),
                    i64::from_le_bytes(lo.try_into().expect("eight bytes")),
                )
            }};
        }
        // `x` carried past the next `next`, added to it.
        macro_rules! fold {
            ($x:expr, $k:expr, $next:expr) => {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128::<0x00>($x, $k),
                        _mm_clmulepi64_si128::<0x11>($x, $k),
                    ),
                    $next,
                )
            };
        }
        let seed = _mm_cvtsi32_si128(!crc as i32);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut at;
        let mut x = if data.len() >= 64 {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut lanes = [
                _mm_xor_si128(block!(0), seed),
                block!(16),
                block!(32),
                block!(48),
            ];
            at = 64;
            while at + 64 <= data.len() {
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold!(*lane, k1k2, block!(at + 16 * j));
                }
                at += 64;
            }
            let [a, b, c, d] = lanes;
            fold!(fold!(fold!(a, k3k4, b), k3k4, c), k3k4, d)
        } else {
            at = 16;
            _mm_xor_si128(block!(0), seed)
        };
        while at + 16 <= data.len() {
            x = fold!(x, k3k4, block!(at));
            at += 16;
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: the quotient's low bits from μ, then the remainder.
        let pmu = _mm_set_epi64x(MU_R, P_R);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let reg = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        super::crc32_tables(!reg, &data[at..])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// splitmix64: the tests' whole generator, so they need no dependency. A
    /// failure names its seed, and the seed reproduces it.
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        pub(crate) fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference: every
    /// file written before the change was checksummed by exactly this.
    pub(crate) fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Every length 0..=4096 at every alignment 0..8 of a seeded random
    /// buffer: the sliced loop, its remainder loop and the seam between them
    /// all agree with the reference.
    #[test]
    fn equals_the_bytewise_reference_at_every_length_and_alignment() {
        let buf = SplitMix(0x9E37_79B9_7F4A_7C15).bytes(4096 + 8);
        for align in 0..8 {
            // The reference register, extended one byte per length (which is
            // `crc32_bytewise` without restarting it for every prefix).
            let mut reference = 0xFFFF_FFFFu32;
            for len in 0..=4096 {
                let s = &buf[align..align + len];
                assert_eq!(crc32(s), !reference, "len {len} at offset {align}");
                reference = (reference >> 8)
                    ^ TABLES[0][((reference ^ buf[align + len] as u32) & 0xFF) as usize];
            }
            assert_eq!(
                crc32_bytewise(&buf[align..align + 4096]),
                crc32(&buf[align..align + 4096])
            );
        }
    }

    /// Resumed at every cut of a buffer, the CRC is the whole buffer's.
    #[test]
    fn resuming_at_any_cut_equals_the_whole() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 5) as u8).collect();
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_resume(crc32(a), b), whole, "cut at {cut}");
        }
    }

    /// Both kernels, called directly: on a host without PCLMULQDQ only the
    /// tables, which the bytewise reference then checks alone.
    type Kernel = fn(u32, &[u8]) -> u32;

    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("tables", crc32_tables)];
        #[cfg(target_arch = "x86_64")]
        if *clmul::DETECTED {
            // SAFETY: the CPU has PCLMULQDQ.
            kernels.push(("carry-less", |crc, data| unsafe {
                clmul::crc32_resume(crc, data)
            }));
        }
        kernels
    }

    /// The carry-less kernel against the tables and the tables against the
    /// bytewise reference: every length 0..=1 024 at every start offset
    /// 0..16, `random` lengths up to 1 MiB, and each of those resumed at
    /// random split points (up to eight pieces) to the same value.
    fn kernels_agree(seed: u64, random: usize) {
        let mut rng = SplitMix(seed);
        let buf = rng.bytes((1 << 20) + 16);
        let kernels = kernels();
        for (name, crc) in &kernels {
            assert_eq!(crc(0, b"123456789"), 0xCBF4_3926, "{name}: IEEE check");
        }
        let check = |rng: &mut SplitMix, s: &[u8], what: &str| {
            let want = crc32_tables(0, s);
            for (name, crc) in &kernels {
                assert_eq!(crc(0, s), want, "{name}: {what}, seed {seed}");
                let mut pieces = rng.below(8) as usize;
                let (mut resumed, mut rest) = (0, s);
                while pieces > 0 && !rest.is_empty() {
                    let (a, b) = rest.split_at(rng.below(rest.len() as u64 + 1) as usize);
                    (resumed, rest, pieces) = (crc(resumed, a), b, pieces - 1);
                }
                assert_eq!(
                    crc(resumed, rest),
                    want,
                    "{name}: {what} resumed, seed {seed}"
                );
            }
        };
        for len in 0..=1024 {
            for start in 0..16 {
                let s = &buf[start..start + len];
                check(&mut rng, s, &format!("len {len} at {start}"));
            }
            assert_eq!(crc32_tables(0, &buf[..len]), crc32_bytewise(&buf[..len]));
        }
        for _ in 0..random {
            let start = rng.below(16) as usize;
            let len = rng.below(1 << 20) as usize;
            check(
                &mut rng,
                &buf[start..start + len],
                &format!("len {len} at {start}"),
            );
        }
    }

    #[test]
    fn the_carry_less_kernel_equals_the_tables() {
        kernels_agree(1, 16);
    }

    /// [`kernels_agree`] over 64 seeds of 64 random lengths each: run with
    /// `-- --include-ignored`.
    #[test]
    #[ignore = "long: run with --release -- --include-ignored"]
    fn the_carry_less_kernel_equals_the_tables_at_a_raised_case_count() {
        for seed in 2..66 {
            kernels_agree(seed, 64);
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"phoenix wal record");
        let mut data = b"phoenix wal record".to_vec();
        for i in 0..data.len() {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 1;
        }
    }
}
