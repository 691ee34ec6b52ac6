//! FNV-1a, the stack's one 64-bit hash: vocabulary buckets and path
//! hashes (`nvc-embed`), decision-cache keys (`nvc-serve`), checkpoint
//! content hashes (`nvc-nn`) and routing keys (`nvc-hub`, `nvc-fleet`).
//!
//! Besides the byte loop ([`Fnv1a::write`]) there are two shortcuts, each
//! giving the bits the byte loop gives:
//!
//! * **A fixed string in one step.** For any byte string `s` and any state
//!   `h`, hashing `s` from `h` gives `h·P^|s| + C_s[h & 0xff]` (mod 2⁶⁴).
//!   Xor with a byte touches only the low byte, and the low byte of a
//!   product depends only on the low bytes of its factors, so all that a
//!   run of xor-multiply steps adds beyond `h·P^|s|` is a function of
//!   `h`'s low byte. A [`Step`] holds `P^|s|` and the 256 values of
//!   `C_s`, so [`Fnv1a::step`] is one multiply, one table load and one
//!   add where the byte loop is `|s|` dependent multiplies.
//! * **Zero bytes fold.** Xor with a zero byte is the identity, so each
//!   zero byte is a bare multiply by `P`, and [`Fnv1a::write_u64`] of a
//!   value below 2¹⁶ hashes its two low bytes and then multiplies once by
//!   `P⁶`.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME⁶`: the six zero high bytes of a `u64` below 2¹⁶.
const PRIME_POW_6: u64 = pow(6);

const fn pow(n: usize) -> u64 {
    let mut p = 1u64;
    let mut i = 0;
    while i < n {
        p = p.wrapping_mul(PRIME);
        i += 1;
    }
    p
}

#[inline]
const fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(PRIME);
        i += 1;
    }
    h
}

/// An incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the standard 64-bit offset basis.
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// A hasher resumed from `state` (a [`Fnv1a::finish`] value).
    pub const fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Folds `bytes` into the state, one xor-multiply per byte.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = fold(self.0, bytes);
    }

    /// Folds the string `step` was built from into the state, as
    /// [`Fnv1a::write`] of it would.
    #[inline]
    pub fn step(&mut self, step: &Step) {
        self.0 = self
            .0
            .wrapping_mul(step.mul)
            .wrapping_add(step.add[(self.0 & 0xff) as usize]);
    }

    /// Folds `x`'s eight little-endian bytes into the state — the same as
    /// `write(&x.to_le_bytes())` — with the six zero high bytes of a value
    /// below 2¹⁶ folded into one multiply.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        if x < 1 << 16 {
            self.0 = fold(self.0, &[x as u8, (x >> 8) as u8]).wrapping_mul(PRIME_POW_6);
        } else {
            self.write(&x.to_le_bytes());
        }
    }

    /// The current hash value.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed byte string compiled into one [`Fnv1a::step`]: `P^|s|` and
/// the 2 KiB table of what hashing it adds, by the state's low byte.
/// Build it with [`Step::new`] in a `const` or `static`, so the table is
/// made at compile time.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    mul: u64,
    add: [u64; 256],
}

impl Step {
    /// The step for the concatenation of `parts`.
    pub const fn new(parts: &[&[u8]]) -> Self {
        let mut len = 0;
        let mut p = 0;
        while p < parts.len() {
            len += parts[p].len();
            p += 1;
        }
        let mul = pow(len);
        let mut add = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let mut h = low as u64;
            let mut p = 0;
            while p < parts.len() {
                h = fold(h, parts[p]);
                p += 1;
            }
            add[low] = h.wrapping_sub((low as u64).wrapping_mul(mul));
            low += 1;
        }
        Step { mul, add }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(x: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&x.to_le_bytes());
        h.finish()
    }

    #[test]
    fn offset_basis_and_a_known_vector() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_u64_equals_writing_its_bytes() {
        for x in [
            0,
            1,
            255,
            256,
            0xFFFF,
            0x1_0000,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut h = Fnv1a::new();
            h.write_u64(x);
            assert_eq!(h.finish(), bytes_of(x), "{x:#x}");
        }
    }

    #[test]
    fn a_step_equals_writing_its_string_from_every_low_byte() {
        const SEP: Step = Step::new(&[&0xFFFF_FFFF_FFFF_FFFEu64.to_le_bytes()]);
        const EMPTY: Step = Step::new(&[]);
        const SPLIT: Step = Step::new(&[b"v", b"CompoundAssign"]);
        for low in 0..256u64 {
            let state = 0x9E37_79B9_7F4A_7C00 | low;
            for (step, text) in [
                (&SEP, &0xFFFF_FFFF_FFFF_FFFEu64.to_le_bytes()[..]),
                (&EMPTY, &b""[..]),
                (&SPLIT, &b"vCompoundAssign"[..]),
            ] {
                let (mut stepped, mut written) =
                    (Fnv1a::from_state(state), Fnv1a::from_state(state));
                stepped.step(step);
                written.write(text);
                assert_eq!(stepped, written);
            }
        }
    }
}
