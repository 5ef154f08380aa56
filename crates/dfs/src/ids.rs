//! Identifier newtypes shared across the file system and DYRS.

use std::fmt;

/// Identifies one block in the file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Identifies one file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Identifies a client job. DYRS reference lists (paper §III-C3) are keyed
/// by job id: a block is evictable once no live job still references it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl FileId {
    /// Index into per-file vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file_{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job_{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(BlockId(7).to_string(), "blk_7");
        assert_eq!(FileId(2).to_string(), "file_2");
        assert_eq!(JobId(9).to_string(), "job_9");
    }

    #[test]
    fn ordering_follows_numeric() {
        assert!(BlockId(1) < BlockId(2));
        assert!(JobId(10) > JobId(9));
    }
}
