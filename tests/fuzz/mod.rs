//! The byte mutator the seeded fuzz tests share.

use stacksim_rng::StdRng;

/// Bytes likely to change how a JSON parser reads its input.
const INTERESTING: &[u8] = b"{}[]\":,\\-+.eE0123456789 tfnul\x00\xff";

/// One to four byte flips, inserts, deletes or truncations of `input`.
pub fn mutate(rng: &mut StdRng, input: &[u8]) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..rng.gen_range(1usize..5) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0u32..4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0u32..8),
            1 => {
                let byte = if rng.gen_bool(0.5) {
                    INTERESTING[rng.gen_range(0..INTERESTING.len())]
                } else {
                    rng.gen_range(0u8..=255)
                };
                bytes.insert(at, byte);
            }
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    bytes
}
