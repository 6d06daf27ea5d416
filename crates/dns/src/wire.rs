//! Low-level byte cursor helpers shared by the codec.

use crate::DnsError;

/// A bounds-checked reader over a DNS message buffer.
///
/// All multi-byte reads are big-endian, per RFC 1035 §2.3.2. The reader
/// keeps the *whole* message visible so that name decompression can seek
/// backwards to pointer targets.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Current cursor offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute offset.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] if `pos` is past the end of the
    /// buffer.
    pub fn seek(&mut self, pos: usize) -> Result<(), DnsError> {
        if pos > self.buf.len() {
            return Err(DnsError::Truncated {
                context: "seek target",
            });
        }
        self.pos = pos;
        Ok(())
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed every byte.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The full underlying message (used by decompression).
    pub fn message(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] at end of input.
    pub fn read_u8(&mut self, context: &'static str) -> Result<u8, DnsError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(DnsError::Truncated { context })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] at end of input.
    pub fn read_u16(&mut self, context: &'static str) -> Result<u16, DnsError> {
        let hi = self.read_u8(context)? as u16;
        let lo = self.read_u8(context)? as u16;
        Ok(hi << 8 | lo)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] at end of input.
    pub fn read_u32(&mut self, context: &'static str) -> Result<u32, DnsError> {
        let hi = self.read_u16(context)? as u32;
        let lo = self.read_u16(context)? as u32;
        Ok(hi << 16 | lo)
    }

    /// Reads exactly `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::Truncated`] if fewer than `len` bytes remain.
    pub fn read_bytes(&mut self, len: usize, context: &'static str) -> Result<&'a [u8], DnsError> {
        if self.remaining() < len {
            return Err(DnsError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }
}

/// A growable writer that assembles a DNS message.
///
/// All multi-byte writes are big-endian. The writer enforces an optional
/// size ceiling so encoders can fail early instead of emitting messages
/// the transport would drop.
#[derive(Debug, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
    limit: Option<usize>,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    /// Creates an unbounded writer.
    pub fn new() -> Self {
        WireWriter {
            buf: Vec::with_capacity(128),
            limit: None,
        }
    }

    /// Creates a writer that refuses to grow past `limit` bytes.
    pub fn with_limit(limit: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(limit.min(1024)),
            limit: Some(limit),
        }
    }

    /// Creates an unbounded writer on top of an existing buffer: the
    /// buffer is cleared but its capacity is kept, so a warm buffer
    /// makes the whole encode allocation-free. Recover the bytes with
    /// [`into_bytes`](Self::into_bytes).
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf, limit: None }
    }

    /// [`from_vec`](Self::from_vec) with a size ceiling.
    pub fn from_vec_with_limit(mut buf: Vec<u8>, limit: usize) -> Self {
        buf.clear();
        WireWriter {
            buf,
            limit: Some(limit),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the assembled message.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A view of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    fn check(&self, extra: usize) -> Result<(), DnsError> {
        if let Some(limit) = self.limit {
            let need = self.buf.len() + extra;
            if need > limit {
                return Err(DnsError::MessageTooLarge { need, limit });
            }
        }
        Ok(())
    }

    /// Appends one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling would be
    /// exceeded.
    pub fn write_u8(&mut self, v: u8) -> Result<(), DnsError> {
        self.check(1)?;
        self.buf.push(v);
        Ok(())
    }

    /// Appends a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling would be
    /// exceeded.
    pub fn write_u16(&mut self, v: u16) -> Result<(), DnsError> {
        self.check(2)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling would be
    /// exceeded.
    pub fn write_u32(&mut self, v: u32) -> Result<(), DnsError> {
        self.check(4)?;
        self.buf.extend_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Appends raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::MessageTooLarge`] if the ceiling would be
    /// exceeded.
    pub fn write_bytes(&mut self, v: &[u8]) -> Result<(), DnsError> {
        self.check(v.len())?;
        self.buf.extend_from_slice(v);
        Ok(())
    }

    /// Overwrites the big-endian `u16` at `offset` (used to patch counts
    /// after the fact).
    ///
    /// # Panics
    ///
    /// Panics if `offset + 2` exceeds the written length; this indicates a
    /// bug in the encoder, not bad input.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        let bytes = v.to_be_bytes();
        self.buf[offset] = bytes[0];
        self.buf[offset + 1] = bytes[1];
    }
}

/// A reusable wire-serialization buffer.
///
/// Thin wrapper over `Vec<u8>` whose point is the *protocol*: encoders
/// take `&mut WireBuf` and replace its contents while keeping its
/// capacity, so a warm buffer is filled with zero heap allocations.
/// Pair with [`BufPool`] to recycle buffers across packets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBuf {
    buf: Vec<u8>,
}

impl WireBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        WireBuf::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        WireBuf {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing vector (contents preserved).
    pub fn from_vec(buf: Vec<u8>) -> Self {
        WireBuf { buf }
    }

    /// Unwraps into the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The current contents.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Direct access to the underlying vector (encoders use this to
    /// move the storage into a [`WireWriter`] and back).
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

/// A free-list of [`WireBuf`]s.
///
/// `checkout` hands out a cleared buffer (reusing a returned one when
/// available), `checkin` returns it. Steady state — every checkout
/// matched by a checkin — performs no heap allocation once the pooled
/// buffers have grown to the working-set packet size.
#[derive(Debug, Clone, Default)]
pub struct BufPool {
    free: Vec<WireBuf>,
}

impl BufPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Takes a cleared buffer from the pool, or a fresh one if none are
    /// free.
    pub fn checkout(&mut self) -> WireBuf {
        match self.free.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => WireBuf::new(),
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn checkin(&mut self, buf: WireBuf) {
        self.free.push(buf);
    }

    /// Number of idle buffers.
    #[cfg(test)]
    fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_roundtrips_scalars() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde];
        let mut r = WireReader::new(&data);
        assert_eq!(r.read_u8("a").unwrap(), 0x12);
        assert_eq!(r.read_u16("b").unwrap(), 0x3456);
        assert_eq!(r.read_u32("c").unwrap(), 0x789a_bcde);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_reports_truncation_with_context() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.read_u8("x").unwrap(), 1);
        assert_eq!(
            r.read_u16("hdr"),
            Err(DnsError::Truncated { context: "hdr" })
        );
    }

    #[test]
    fn reader_seek_bounds() {
        let mut r = WireReader::new(&[0, 1, 2]);
        r.seek(3).unwrap();
        assert!(r.is_empty());
        assert!(r.seek(4).is_err());
    }

    #[test]
    fn reader_read_bytes_exact() {
        let mut r = WireReader::new(&[1, 2, 3, 4]);
        assert_eq!(r.read_bytes(3, "x").unwrap(), &[1, 2, 3]);
        assert!(r.read_bytes(2, "x").is_err());
        assert_eq!(r.remaining(), 1);
    }

    #[test]
    fn writer_respects_limit() {
        let mut w = WireWriter::with_limit(3);
        w.write_u16(0xaabb).unwrap();
        assert_eq!(
            w.write_u16(0xccdd),
            Err(DnsError::MessageTooLarge { need: 4, limit: 3 })
        );
        w.write_u8(0xee).unwrap();
        assert_eq!(w.into_bytes(), vec![0xaa, 0xbb, 0xee]);
    }

    #[test]
    fn writer_patch_u16() {
        let mut w = WireWriter::new();
        w.write_u32(0).unwrap();
        w.patch_u16(2, 0xbeef);
        assert_eq!(w.as_bytes(), &[0, 0, 0xbe, 0xef]);
    }

    #[test]
    fn writer_big_endian() {
        let mut w = WireWriter::new();
        w.write_u16(0x0102).unwrap();
        w.write_u32(0x0304_0506).unwrap();
        assert_eq!(w.into_bytes(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn writer_from_vec_keeps_capacity() {
        let mut v = vec![9u8; 64];
        let cap = v.capacity();
        v.truncate(64);
        let mut w = WireWriter::from_vec(v);
        assert!(w.is_empty());
        w.write_u16(0xbeef).unwrap();
        let out = w.into_bytes();
        assert_eq!(out, vec![0xbe, 0xef]);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn from_vec_with_limit_still_enforces_ceiling() {
        let mut w = WireWriter::from_vec_with_limit(Vec::with_capacity(16), 2);
        w.write_u16(1).unwrap();
        assert!(w.write_u8(0).is_err());
    }

    #[test]
    fn pool_reuses_returned_buffers() {
        let mut pool = BufPool::new();
        let mut b = pool.checkout();
        b.as_mut_vec().extend_from_slice(&[1, 2, 3]);
        let ptr = b.as_bytes().as_ptr();
        pool.checkin(b);
        assert_eq!(pool.available(), 1);
        let b2 = pool.checkout();
        assert!(b2.is_empty(), "checked-out buffers are cleared");
        assert_eq!(b2.as_bytes().as_ptr(), ptr, "same allocation reused");
        assert_eq!(pool.available(), 0);
    }
}
