//! Simulated memory: a global data segment plus a downward-growing stack.
//!
//! Addresses match the layout constants in `ferrum-mir`'s interpreter so
//! that pointer values printed by either executor would agree.  Memory is
//! byte-addressable and little-endian; accesses outside the two mapped
//! regions fault.

use ferrum_asm::reg::Width;

/// Base address of the global data segment.
pub const GLOBALS_BASE: u64 = 0x0001_0000;
/// Top of the stack (exclusive); the stack grows downward from here.
pub const STACK_TOP: u64 = 0x0800_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u64 = 512 * 1024;

/// Byte-addressable little-endian memory.
///
/// The stack keeps only its touched part.  `stack[d]` is the byte at
/// `STACK_TOP - 1 - d`: the vector is indexed by depth below the top,
/// so the stack grows downward by growing at the vector's end.  Every
/// stack byte deeper than `stack.len()` has not been stored to since
/// construction and is the all-zero initial image: loads there read 0,
/// and a store there first extends the vector with zeros down to the
/// stored byte.  A plain clone therefore copies only the touched stack,
/// and restores and content compares walk only that much.
#[derive(Debug, Clone)]
pub struct Memory {
    globals: Vec<u8>,
    stack: Vec<u8>,
}

/// A faulting access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFault {
    /// The offending address.
    pub addr: u64,
}

/// Where a mapped access lives.
#[derive(Clone, Copy)]
enum Loc {
    /// Offset of the access's lowest byte in the global segment.
    Globals(usize),
    /// Depth below `STACK_TOP` of the access's highest byte; the
    /// access covers depths `d..d + len`, highest address first.
    Stack(usize),
}

impl Memory {
    /// Creates memory with the given global segment image.
    pub fn new(globals: Vec<u8>) -> Memory {
        Memory {
            globals,
            stack: Vec::new(),
        }
    }

    /// Whether two memories hold identical contents.
    ///
    /// The stacks may keep touched parts of different depths: the
    /// common depths compare byte for byte, and the deeper one's extra
    /// bytes must all be zero, the other's initial image there.
    pub fn same_contents(&self, other: &Memory) -> bool {
        let (a, b) = (&self.stack, &other.stack);
        let n = a.len().min(b.len());
        self.globals == other.globals
            && a[..n] == b[..n]
            && a[n..].iter().chain(&b[n..]).all(|&x| x == 0)
    }

    /// In-place restore from `other`, reusing this memory's buffers.
    ///
    /// Byte-identical to `*self = other.clone()`, touched-stack depth
    /// included, without allocating when the buffers are large enough;
    /// the copy is bounded by `other`'s globals and touched stack.
    pub(crate) fn restore_from(&mut self, other: &Memory) {
        self.globals.clone_from(&other.globals);
        self.stack.clone_from(&other.stack);
    }

    /// Bytes of stack this memory keeps (the touched depth).
    #[cfg(test)]
    pub(crate) fn stack_len(&self) -> usize {
        self.stack.len()
    }

    fn locate(&self, addr: u64, len: u64) -> Result<Loc, AccessFault> {
        let gend = GLOBALS_BASE + self.globals.len() as u64;
        if addr >= GLOBALS_BASE && addr.saturating_add(len) <= gend {
            return Ok(Loc::Globals((addr - GLOBALS_BASE) as usize));
        }
        // Bytes from `addr` up to the top; huge when `addr` is above it.
        let depth = STACK_TOP.wrapping_sub(addr);
        if (len..=STACK_SIZE).contains(&depth) {
            return Ok(Loc::Stack((depth - len) as usize));
        }
        Err(AccessFault { addr })
    }

    /// The bytes of a located `n`-byte access (in depth order on the
    /// stack), growing the touched stack to cover them.
    #[inline(always)]
    fn span_mut(&mut self, loc: Loc, n: usize) -> &mut [u8] {
        match loc {
            Loc::Globals(off) => &mut self.globals[off..off + n],
            Loc::Stack(d) => {
                if self.stack.len() < d + n {
                    self.stack.resize(d + n, 0);
                }
                &mut self.stack[d..d + n]
            }
        }
    }

    /// Loads `w.bytes()` little-endian bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped regions.
    pub fn load(&self, addr: u64, w: Width) -> Result<u64, AccessFault> {
        let n = w.bytes() as usize;
        let loc = self.locate(addr, n as u64)?;
        let mut v = 0u64;
        for i in (0..n).rev() {
            let b = match loc {
                Loc::Globals(off) => self.globals[off + i],
                Loc::Stack(d) => self.stack.get(d + n - 1 - i).copied().unwrap_or(0),
            };
            v = (v << 8) | u64::from(b);
        }
        Ok(v)
    }

    /// Word-at-a-time load used by the decoded engine's hot loop.
    ///
    /// Same mapping rules and little-endian layout as [`Memory::load`]
    /// (the byte-loop form stays as the reference implementation the
    /// interpreter executes), but moves whole words.
    pub(crate) fn load_w(&self, addr: u64, w: Width) -> Result<u64, AccessFault> {
        Ok(match w {
            Width::W8 => u64::from(self.read(addr, u8::from_le_bytes, u8::from_be_bytes)?),
            Width::W16 => u64::from(self.read(addr, u16::from_le_bytes, u16::from_be_bytes)?),
            Width::W32 => u64::from(self.read(addr, u32::from_le_bytes, u32::from_be_bytes)?),
            Width::W64 => self.read(addr, u64::from_le_bytes, u64::from_be_bytes)?,
        })
    }

    /// Word-at-a-time store used by the decoded engine's hot loop.
    ///
    /// Byte-identical effect to [`Memory::store`].
    pub(crate) fn store_w(&mut self, addr: u64, w: Width, value: u64) -> Result<(), AccessFault> {
        let (h, l) = (value as u16, value as u32);
        match w {
            Width::W8 => self.write(addr, [value as u8], [value as u8]),
            Width::W16 => self.write(addr, h.to_le_bytes(), h.to_be_bytes()),
            Width::W32 => self.write(addr, l.to_le_bytes(), l.to_be_bytes()),
            Width::W64 => self.write(addr, value.to_le_bytes(), value.to_be_bytes()),
        }
    }

    /// Decodes the `N` bytes at `addr`: `le` for the globals, `be` for
    /// the stack, whose depth order runs from the highest address down.
    /// A constant `N` keeps each access a single move.
    #[inline(always)]
    fn read<const N: usize, T>(
        &self,
        addr: u64,
        le: fn([u8; N]) -> T,
        be: fn([u8; N]) -> T,
    ) -> Result<T, AccessFault> {
        Ok(match self.locate(addr, N as u64)? {
            Loc::Globals(off) => le(self.globals[off..off + N].try_into().expect("N bytes")),
            Loc::Stack(d) => be(match self.stack.get(d..d + N) {
                Some(s) => s.try_into().expect("N bytes"),
                None => self.read_untouched(d),
            }),
        })
    }

    /// Stack bytes at depths `d..d + N`, reading 0 below the touched
    /// stack — off the hot path.
    #[cold]
    fn read_untouched<const N: usize>(&self, d: usize) -> [u8; N] {
        std::array::from_fn(|i| self.stack.get(d + i).copied().unwrap_or(0))
    }

    /// Stores `le` at `addr` in the globals, or `be` (the same value in
    /// depth order) on the stack.
    #[inline(always)]
    fn write<const N: usize>(
        &mut self,
        addr: u64,
        le: [u8; N],
        be: [u8; N],
    ) -> Result<(), AccessFault> {
        let loc = self.locate(addr, N as u64)?;
        let bytes = if let Loc::Stack(_) = loc { be } else { le };
        self.span_mut(loc, N).copy_from_slice(&bytes);
        Ok(())
    }

    /// Stores the low `w.bytes()` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped regions.
    pub fn store(&mut self, addr: u64, w: Width, value: u64) -> Result<(), AccessFault> {
        let n = w.bytes() as usize;
        let loc = self.locate(addr, n as u64)?;
        let span = self.span_mut(loc, n);
        span.copy_from_slice(&value.to_le_bytes()[..n]);
        if let Loc::Stack(_) = loc {
            span.reverse(); // depth order: highest address first
        }
        Ok(())
    }
}

/// Builds the global segment image from data objects, returning the
/// image and each object's base address in declaration order.
pub fn build_globals(data: &[ferrum_asm::program::DataObject]) -> (Vec<u8>, Vec<(String, u64)>) {
    let mut image = Vec::new();
    let mut bases = Vec::new();
    for d in data {
        bases.push((d.name.clone(), GLOBALS_BASE + image.len() as u64));
        for w in &d.words {
            image.extend_from_slice(&w.to_le_bytes());
        }
    }
    (image, bases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::program::DataObject;

    #[test]
    fn round_trip_at_all_widths() {
        let mut m = Memory::new(vec![0; 64]);
        for (w, val) in [
            (Width::W8, 0xabu64),
            (Width::W16, 0xbeefu64),
            (Width::W32, 0xdead_beefu64),
            (Width::W64, 0x0123_4567_89ab_cdefu64),
        ] {
            m.store(GLOBALS_BASE + 8, w, val).unwrap();
            assert_eq!(m.load(GLOBALS_BASE + 8, w).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(vec![0; 16]);
        m.store(GLOBALS_BASE, Width::W64, 0x0807_0605_0403_0201)
            .unwrap();
        assert_eq!(m.load(GLOBALS_BASE, Width::W8).unwrap(), 0x01);
        assert_eq!(m.load(GLOBALS_BASE + 7, Width::W8).unwrap(), 0x08);
        assert_eq!(m.load(GLOBALS_BASE, Width::W32).unwrap(), 0x0403_0201);
    }

    #[test]
    fn stack_region_is_mapped() {
        let mut m = Memory::new(vec![]);
        let addr = STACK_TOP - 8;
        m.store(addr, Width::W64, 77).unwrap();
        assert_eq!(m.load(addr, Width::W64).unwrap(), 77);
        let low = STACK_TOP - STACK_SIZE;
        m.store(low, Width::W64, 1).unwrap();
        assert!(m.store(low - 8, Width::W64, 1).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new(vec![0; 8]);
        assert!(m.load(0, Width::W64).is_err());
        assert!(m.load(GLOBALS_BASE + 8, Width::W64).is_err()); // past end
        assert!(m.load(GLOBALS_BASE + 4, Width::W64).is_err()); // straddles end
        assert_eq!(m.load(GLOBALS_BASE, Width::W64).unwrap(), 0);
    }

    #[test]
    fn unaligned_access_is_allowed_like_x86() {
        let mut m = Memory::new(vec![0; 32]);
        m.store(GLOBALS_BASE + 3, Width::W32, 0xaabb_ccdd).unwrap();
        assert_eq!(m.load(GLOBALS_BASE + 3, Width::W32).unwrap(), 0xaabb_ccdd);
    }

    /// The flat reference model: both regions fully materialized, the
    /// layout every [`Memory`] must be indistinguishable from.
    #[derive(Clone, PartialEq)]
    struct Flat {
        globals: Vec<u8>,
        stack: Vec<u8>,
    }

    impl Flat {
        fn new(globals: Vec<u8>) -> Flat {
            Flat {
                globals,
                stack: vec![0; STACK_SIZE as usize],
            }
        }

        fn span(&mut self, addr: u64, n: u64) -> Result<&mut [u8], AccessFault> {
            let (n, gend) = (n as usize, GLOBALS_BASE + self.globals.len() as u64);
            let sbase = STACK_TOP - STACK_SIZE;
            if addr >= GLOBALS_BASE && addr.saturating_add(n as u64) <= gend {
                let off = (addr - GLOBALS_BASE) as usize;
                Ok(&mut self.globals[off..off + n])
            } else if addr >= sbase && addr.saturating_add(n as u64) <= STACK_TOP {
                let off = (addr - sbase) as usize;
                Ok(&mut self.stack[off..off + n])
            } else {
                Err(AccessFault { addr })
            }
        }

        fn load(&mut self, addr: u64, w: Width) -> Result<u64, AccessFault> {
            let span = self.span(addr, w.bytes())?;
            Ok(span.iter().rev().fold(0, |v, &b| (v << 8) | u64::from(b)))
        }

        fn store(&mut self, addr: u64, w: Width, value: u64) -> Result<(), AccessFault> {
            for (i, b) in self.span(addr, w.bytes())?.iter_mut().enumerate() {
                *b = (value >> (8 * i)) as u8;
            }
            Ok(())
        }
    }

    const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];

    /// An address biased toward the edges that matter: the global
    /// segment's end, both sides of the stack top and of `m`'s
    /// touched-stack edge, the lowest stack bytes, just below the
    /// stack, and anywhere.
    fn pick_addr(rng: &mut ferrum_rng::Rng64, m: &Memory) -> u64 {
        let sbase = STACK_TOP - STACK_SIZE;
        let edge = STACK_TOP - m.stack_len() as u64;
        match rng.gen_below(8) {
            0 => GLOBALS_BASE + rng.gen_below(64 + 8),
            1 => STACK_TOP + 8 - rng.gen_below(264),
            2 | 3 => (edge - 8 + rng.gen_below(16)).max(sbase),
            4 => sbase + rng.gen_below(8),
            5 => sbase - 8 + rng.gen_below(8),
            6 => sbase + rng.gen_below(STACK_SIZE),
            _ => rng.next_u64(),
        }
    }

    fn pick_value(rng: &mut ferrum_rng::Rng64) -> u64 {
        match rng.gen_below(3) {
            0 => 0,
            1 => rng.gen_below(256),
            _ => rng.next_u64(),
        }
    }

    #[test]
    fn randomized_ops_match_the_flat_reference() {
        let (mut grew, mut shrank, mut equal_at_different_depths) = (0, 0, 0);
        for seed in 0..4u64 {
            let mut rng = ferrum_rng::Rng64::seed_from_u64(0x5eed_0000 + seed);
            let globals: Vec<u8> = (0..64).map(|i| (i * 7) as u8).collect();
            let mut mems = vec![Memory::new(globals.clone()); 4];
            let mut flats = vec![Flat::new(globals); 4];
            let mut deepest = [0usize; 4];
            for step in 0..3000 {
                let i = rng.gen_below(4) as usize;
                let j = rng.gen_below(4) as usize;
                let w = WIDTHS[rng.gen_below(4) as usize];
                let addr = pick_addr(&mut rng, &mems[i]);
                let ctx = format!("seed {seed} step {step} mem {i} addr {addr:#x} {w:?}");
                match rng.gen_below(16) {
                    0..=5 => {
                        let v = pick_value(&mut rng);
                        let want = flats[i].store(addr, w, v);
                        let got = if rng.gen_below(2) == 0 {
                            mems[i].store(addr, w, v)
                        } else {
                            mems[i].store_w(addr, w, v)
                        };
                        assert_eq!(got, want, "store: {ctx}");
                        let on_stack = (STACK_TOP - STACK_SIZE..STACK_TOP).contains(&addr);
                        if want.is_ok() && on_stack {
                            deepest[i] = deepest[i].max((STACK_TOP - addr) as usize);
                        }
                    }
                    6..=10 => {
                        let want = flats[i].load(addr, w);
                        assert_eq!(mems[i].load(addr, w), want, "load: {ctx}");
                        assert_eq!(mems[i].load_w(addr, w), want, "load_w: {ctx}");
                    }
                    11 => {
                        mems[j] = mems[i].clone();
                        flats[j] = flats[i].clone();
                        deepest[j] = deepest[i];
                    }
                    12 | 13 => {
                        let (from, to) = (mems[i].stack_len(), mems[j].stack_len());
                        grew += usize::from(from > to);
                        shrank += usize::from(from < to);
                        let src = mems[i].clone();
                        mems[j].restore_from(&src);
                        flats[j] = flats[i].clone();
                        deepest[j] = deepest[i];
                    }
                    _ => {
                        let same = mems[i].same_contents(&mems[j]);
                        assert_eq!(same, flats[i] == flats[j], "same_contents: {ctx}");
                        assert_eq!(same, mems[j].same_contents(&mems[i]), "symmetry: {ctx}");
                        let depths_differ = mems[i].stack_len() != mems[j].stack_len();
                        equal_at_different_depths += usize::from(same && depths_differ);
                    }
                }
                // The touched stack reaches exactly the deepest stack
                // byte stored to, and nothing is lost below it.
                assert_eq!(mems[i].stack_len(), deepest[i], "touched depth: {ctx}");
                if step % 500 == 0 {
                    for (m, f) in mems.iter().zip(&flats) {
                        let edge = (STACK_SIZE as usize) - m.stack_len();
                        assert!(
                            f.stack[..edge].iter().all(|&b| b == 0),
                            "{ctx}: below the edge"
                        );
                    }
                }
            }
        }
        assert!(
            grew > 0 && shrank > 0,
            "restores in both directions ({grew}, {shrank})"
        );
        assert!(
            equal_at_different_depths > 0,
            "equal contents at different depths never met"
        );
    }

    #[test]
    fn globals_image_layout() {
        let data = vec![
            DataObject::new("a", vec![1, 2]),
            DataObject::new("b", vec![-1]),
        ];
        let (image, bases) = build_globals(&data);
        assert_eq!(image.len(), 24);
        assert_eq!(bases[0], ("a".into(), GLOBALS_BASE));
        assert_eq!(bases[1], ("b".into(), GLOBALS_BASE + 16));
        let m = Memory::new(image);
        assert_eq!(m.load(GLOBALS_BASE + 8, Width::W64).unwrap(), 2);
        assert_eq!(m.load(GLOBALS_BASE + 16, Width::W64).unwrap(), u64::MAX);
    }
}
