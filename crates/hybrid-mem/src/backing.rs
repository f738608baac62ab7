//! Byte-level backing store for the simulated address space.
//!
//! The simulated virtual address space is sparse: spaces reserve large
//! extents but only touch a few megabytes. [`ChunkedMemory`] materialises
//! fixed-size chunks lazily on first write so that reserving a 32 GB PCM
//! extent costs nothing until the heap actually uses it. Chunks are found
//! through a dense per-extent chunk index, one pointer per 64 KB, grown to
//! the highest chunk written.

use crate::address::Address;
use crate::side_table::SideTable;

/// Size of a lazily-allocated backing chunk in bytes (64 KB).
pub const CHUNK_SIZE: usize = 64 * 1024;

type Chunk = Box<[u8; CHUNK_SIZE]>;

/// Sparse, chunked byte store indexed by simulated virtual address.
///
/// Reads from never-written memory return zero, matching the zero-initialised
/// pages a real OS hands to the JVM.
#[derive(Debug)]
pub struct ChunkedMemory {
    chunks: SideTable<Option<Chunk>>,
    resident: usize,
}

impl Default for ChunkedMemory {
    fn default() -> Self {
        ChunkedMemory {
            chunks: SideTable::new(CHUNK_SIZE.trailing_zeros()),
            resident: 0,
        }
    }
}

impl ChunkedMemory {
    /// Creates an empty backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of chunks that have been materialised.
    pub fn resident_chunks(&self) -> usize {
        self.resident
    }

    /// Bytes of host memory used by materialised chunks.
    pub fn resident_bytes(&self) -> usize {
        self.resident * CHUNK_SIZE
    }

    fn chunk_index(addr: Address) -> (u64, usize) {
        (
            addr.raw() / CHUNK_SIZE as u64,
            (addr.raw() % CHUNK_SIZE as u64) as usize,
        )
    }

    /// Bytes of the piece of `[addr, addr + len)` that lies in `addr`'s chunk.
    fn piece(addr: Address, len: usize) -> (u64, usize, usize) {
        let (index, offset) = Self::chunk_index(addr);
        (index, offset, (CHUNK_SIZE - offset).min(len))
    }

    fn chunk_mut(&mut self, index: u64) -> &mut Chunk {
        let slot = self.chunks.get_mut(index);
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| {
            vec![0u8; CHUNK_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("chunk has CHUNK_SIZE bytes")
        })
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Address) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Address, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    pub fn read_bytes(&self, addr: Address, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let (index, offset, take) = Self::piece(addr.add(done), buf.len() - done);
            let out = &mut buf[done..done + take];
            match self.chunks.get(index).and_then(Option::as_ref) {
                Some(chunk) => out.copy_from_slice(&chunk[offset..offset + take]),
                None => out.fill(0),
            }
            done += take;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Address, buf: &[u8]) {
        let mut done = 0;
        while done < buf.len() {
            let (index, offset, take) = Self::piece(addr.add(done), buf.len() - done);
            self.chunk_mut(index)[offset..offset + take].copy_from_slice(&buf[done..done + take]);
            done += take;
        }
    }

    /// Copies `len` bytes from `src` to `dst`, chunk by chunk. The ranges
    /// must not overlap (copies always target a fresh allocation).
    pub fn copy(&mut self, src: Address, dst: Address, len: usize) {
        debug_assert!(
            src.raw() + len as u64 <= dst.raw() || dst.raw() + len as u64 <= src.raw(),
            "overlapping copy {src}..+{len} -> {dst}"
        );
        let mut done = 0;
        while done < len {
            let (src_index, src_offset, src_take) = Self::piece(src.add(done), len - done);
            let (dst_index, dst_offset, take) = Self::piece(dst.add(done), src_take);
            let to = dst_offset..dst_offset + take;
            if src_index == dst_index {
                self.chunk_mut(dst_index)
                    .copy_within(src_offset..src_offset + take, dst_offset);
            } else if let Some(from) = self.chunks.get_mut(src_index).take() {
                self.chunk_mut(dst_index)[to].copy_from_slice(&from[src_offset..src_offset + take]);
                *self.chunks.get_mut(src_index) = Some(from);
            } else {
                self.chunk_mut(dst_index)[to].fill(0);
            }
            done += take;
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    pub fn fill(&mut self, addr: Address, len: usize, value: u8) {
        let mut done = 0;
        while done < len {
            let (index, offset, take) = Self::piece(addr.add(done), len - done);
            self.chunk_mut(index)[offset..offset + take].fill(value);
            done += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = ChunkedMemory::new();
        assert_eq!(mem.read_u64(Address::new(0x1234_5678)), 0);
        let mut buf = [1u8; 32];
        mem.read_bytes(Address::new(0x9999), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn u64_round_trip() {
        let mut mem = ChunkedMemory::new();
        let addr = Address::new(0xAB_CDE0);
        mem.write_u64(addr, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(addr), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn writes_spanning_chunk_boundary() {
        let mut mem = ChunkedMemory::new();
        let addr = Address::new(CHUNK_SIZE as u64 - 4);
        let data: Vec<u8> = (0..16u8).collect();
        mem.write_bytes(addr, &data);
        let mut out = [0u8; 16];
        mem.read_bytes(addr, &mut out);
        assert_eq!(&out[..], &data[..]);
        assert_eq!(mem.resident_chunks(), 2);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut mem = ChunkedMemory::new();
        let src = Address::new(0x1000);
        let dst = Address::new(0x8000);
        let data: Vec<u8> = (0..255u8).collect();
        mem.write_bytes(src, &data);
        mem.copy(src, dst, data.len());
        let mut out = vec![0u8; data.len()];
        mem.read_bytes(dst, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn copy_across_chunk_boundaries_and_from_unwritten_memory() {
        let mut mem = ChunkedMemory::new();
        let src = Address::new(CHUNK_SIZE as u64 - 100);
        let dst = Address::new(5 * CHUNK_SIZE as u64 - 30);
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8 + 1).collect();
        mem.write_bytes(src, &data);
        mem.copy(src, dst, data.len());
        let mut out = vec![0u8; data.len()];
        mem.read_bytes(dst, &mut out);
        assert_eq!(out, data);
        // Copying never-written memory writes zeros and materialises the
        // destination, exactly like a write of zeros.
        let chunks = mem.resident_chunks();
        mem.copy(Address::new(40 * CHUNK_SIZE as u64), dst, 64);
        mem.read_bytes(dst, &mut out[..64]);
        assert!(out[..64].iter().all(|&b| b == 0));
        assert_eq!(mem.resident_chunks(), chunks);
        mem.copy(
            Address::new(40 * CHUNK_SIZE as u64),
            Address::new(41 * CHUNK_SIZE as u64),
            8,
        );
        assert_eq!(
            mem.resident_chunks(),
            chunks + 1,
            "the source stays unmaterialised"
        );
    }

    #[test]
    fn fill_sets_every_byte() {
        let mut mem = ChunkedMemory::new();
        mem.fill(Address::new(0x2000), 100, 0xAA);
        let mut out = [0u8; 100];
        mem.read_bytes(Address::new(0x2000), &mut out);
        assert!(out.iter().all(|&b| b == 0xAA));
        let straddling = Address::new(CHUNK_SIZE as u64 - 10);
        mem.fill(straddling, 20, 0x5C);
        let mut out = [0u8; 22];
        mem.read_bytes(straddling.sub(1), &mut out);
        assert_eq!(out[0], 0);
        assert!(out[1..21].iter().all(|&b| b == 0x5C));
        assert_eq!(out[21], 0);
    }

    #[test]
    fn resident_bytes_tracks_chunks() {
        let mut mem = ChunkedMemory::new();
        assert_eq!(mem.resident_bytes(), 0);
        mem.write_u64(Address::new(8), 1);
        assert_eq!(mem.resident_bytes(), CHUNK_SIZE);
    }
}
