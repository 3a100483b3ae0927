//! OS6-style streams (§2).
//!
//! "A stream is an object that can produce or consume items … There is a
//! standard set of operations defined on every stream: Get, Put (normally
//! only one of these is defined), Reset, Test for end of input, and a few
//! others." The procedures implementing the operations "are not the same
//! for all streams, and indeed can change from time to time" — i.e. each
//! stream carries its own implementation, which in Rust is a trait object.
//!
//! Streams are generic over a *world* type `W`: the state the stream's
//! operations act through. A [`MemoryStream`] needs no world (`W = ()`),
//! a [`DiskByteStream`] works through a mounted
//! [`alto_fs::FileSystem`], and the [`KeyboardStream`]/[`DisplayStream`]
//! work through an [`alto_machine::Machine`]. This mirrors the paper's
//! constructor parameterization ("the procedure to create a stream object
//! of concrete type 'disk file stream' takes as parameters … a disk object
//! … and a zone object", §2) while staying inside Rust's ownership rules.
//!
//! Non-standard operations (§2: "set buffer size, read position in a disk
//! file, etc.") appear as inherent methods on the concrete types — using
//! one "sacrifices compatibility", exactly as the paper warns.

#![forbid(unsafe_code)]

pub mod counting;
pub mod disk;
pub mod errors;
pub mod machine_streams;
pub mod memory;

pub use counting::CountingStream;
pub use disk::{DiskByteStream, DiskWordStream};
pub use errors::StreamError;
pub use machine_streams::{DisplayStream, KeyboardStream};
pub use memory::{MemoryStream, NullStream};

/// The abstract stream object: items are 16-bit words (bytes are carried
/// in the low half), matching the one-word BCPL objects of the original.
pub trait Stream<W> {
    /// Gets the next item. `Err(StreamError::EndOfStream)` past the end.
    fn get(&mut self, world: &mut W) -> Result<u16, StreamError> {
        let _ = world;
        Err(StreamError::NotSupported("get"))
    }

    /// Puts an item.
    fn put(&mut self, world: &mut W, item: u16) -> Result<(), StreamError> {
        let _ = (world, item);
        Err(StreamError::NotSupported("put"))
    }

    /// Reads up to `out.len()` bytes, one item per byte (items carry bytes
    /// in their low half). Returns how many bytes were read — short only
    /// at the end of the input. This default is per-item dispatch; streams
    /// with page buffers (the disk streams) override it with slice copies.
    fn read_bytes(&mut self, world: &mut W, out: &mut [u8]) -> Result<usize, StreamError> {
        for (i, slot) in out.iter_mut().enumerate() {
            match self.get(world) {
                Ok(item) => *slot = item as u8,
                Err(StreamError::EndOfStream) => return Ok(i),
                Err(e) => return Err(e),
            }
        }
        Ok(out.len())
    }

    /// Writes every byte of `bytes`, one item per byte. Same override note
    /// as [`Stream::read_bytes`].
    fn write_bytes(&mut self, world: &mut W, bytes: &[u8]) -> Result<(), StreamError> {
        for &b in bytes {
            self.put(world, b as u16)?;
        }
        Ok(())
    }

    /// Puts the stream into its standard initial state ("the exact meaning
    /// of this operation depends on the type of the stream", §2).
    fn reset(&mut self, world: &mut W) -> Result<(), StreamError>;

    /// True if the stream has no more input.
    fn endof(&mut self, world: &mut W) -> Result<bool, StreamError>;

    /// Flushes and closes the stream. Further operations fail.
    fn close(&mut self, world: &mut W) -> Result<(), StreamError>;
}

/// Convenience: drains a whole input stream into a vector.
pub fn read_all<W, S: Stream<W> + ?Sized>(
    stream: &mut S,
    world: &mut W,
) -> Result<Vec<u16>, StreamError> {
    let mut out = Vec::new();
    loop {
        match stream.get(world) {
            Ok(item) => out.push(item),
            Err(StreamError::EndOfStream) => return Ok(out),
            Err(e) => return Err(e),
        }
    }
}

/// Convenience: writes a whole slice to an output stream.
pub fn write_all<W, S: Stream<W> + ?Sized>(
    stream: &mut S,
    world: &mut W,
    items: &[u16],
) -> Result<(), StreamError> {
    for &item in items {
        stream.put(world, item)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_operations_are_not_supported() {
        // A stream type that defines only the mandatory operations.
        struct Inert;
        impl Stream<()> for Inert {
            fn reset(&mut self, (): &mut ()) -> Result<(), StreamError> {
                Ok(())
            }
            fn endof(&mut self, (): &mut ()) -> Result<bool, StreamError> {
                Ok(true)
            }
            fn close(&mut self, (): &mut ()) -> Result<(), StreamError> {
                Ok(())
            }
        }
        let mut s = Inert;
        assert_eq!(s.get(&mut ()), Err(StreamError::NotSupported("get")));
        assert_eq!(s.put(&mut (), 1), Err(StreamError::NotSupported("put")));
    }

    #[test]
    fn streams_are_object_safe() {
        let mut s: Box<dyn Stream<()>> = Box::new(MemoryStream::from_words(&[1, 2]));
        assert_eq!(s.get(&mut ()).unwrap(), 1);
        assert_eq!(read_all(&mut *s, &mut ()).unwrap(), vec![2]);
    }

    #[test]
    fn default_bulk_operations_ride_on_get_and_put() {
        let mut s = MemoryStream::from_words(&[7, 8, 9]);
        let mut buf = [0u8; 5];
        // Short read at end of input, not an error.
        assert_eq!(s.read_bytes(&mut (), &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], &[7, 8, 9]);
        let mut w = MemoryStream::new();
        w.write_bytes(&mut (), &[4, 5]).unwrap();
        assert_eq!(w.contents(), &[4, 5]);
    }
}
