//! File namespace: names → block lists.

use crate::block::BlockMap;
use crate::ids::{BlockId, FileId};
use crate::placement::PlacementPolicy;
use std::collections::HashMap;

/// Metadata for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// The file's id.
    pub id: FileId,
    /// Path-like name (unique).
    pub name: String,
    /// Blocks, in file order.
    pub blocks: Vec<BlockId>,
    /// Total size in bytes.
    pub size: u64,
}

/// The file namespace. Creating a file splits it into blocks and places
/// replicas via the given policy, like an HDFS client writing a file.
#[derive(Debug, Clone, Default)]
pub struct Namespace {
    files: Vec<FileMeta>,
    by_name: HashMap<String, FileId>,
}

impl Namespace {
    /// Empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a file of `size` bytes, split into blocks of at most
    /// `block_size` bytes, with replicas chosen by `placement`.
    ///
    /// Panics if the name already exists (the workloads never overwrite).
    pub fn create_file(
        &mut self,
        name: impl Into<String>,
        size: u64,
        block_size: u64,
        blocks: &mut BlockMap,
        placement: &mut PlacementPolicy,
    ) -> FileId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "file {name} already exists"
        );
        assert!(block_size > 0, "zero block size");
        let id = FileId(self.files.len() as u32);
        let mut remaining = size;
        let mut file_blocks = Vec::new();
        // Even an empty file gets one zero-length block so every file is
        // readable through the same path.
        loop {
            let this = remaining.min(block_size);
            let replicas = placement.place();
            file_blocks.push(blocks.allocate(this, replicas));
            remaining -= this;
            if remaining == 0 {
                break;
            }
        }
        self.by_name.insert(name.clone(), id);
        self.files.push(FileMeta {
            id,
            name,
            blocks: file_blocks,
            size,
        });
        id
    }

    /// Look up a file by name.
    pub fn lookup(&self, name: &str) -> Option<&FileMeta> {
        self.by_name.get(name).map(|&id| &self.files[id.index()])
    }

    /// Look up a file by id.
    pub fn get(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(id.index())
    }

    /// Map a list of file names to the concatenation of their block lists —
    /// exactly what the DYRS master does with a client migration request
    /// (paper §III: "maps the files to blocks in the file system").
    /// Unknown names are skipped (the request degrades gracefully).
    pub fn blocks_of_files<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<BlockId> {
        names
            .into_iter()
            .filter_map(|n| self.lookup(n))
            .flat_map(|f| f.blocks.iter().copied())
            .collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True if the namespace has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterate over files in creation order.
    pub fn iter(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Rng;

    fn setup() -> (Namespace, BlockMap, PlacementPolicy) {
        (
            Namespace::new(),
            BlockMap::new(),
            PlacementPolicy::new(7, 3, Rng::new(1)),
        )
    }

    #[test]
    fn file_splits_into_blocks() {
        let (mut ns, mut bm, mut pl) = setup();
        let id = ns.create_file("a", 1000, 300, &mut bm, &mut pl);
        let f = ns.get(id).unwrap();
        assert_eq!(f.blocks.len(), 4); // 300+300+300+100
        assert_eq!(bm.expect(f.blocks[3]).size, 100);
        assert_eq!(f.size, 1000);
    }

    #[test]
    fn exact_multiple_has_no_stub_block() {
        let (mut ns, mut bm, mut pl) = setup();
        let id = ns.create_file("a", 900, 300, &mut bm, &mut pl);
        assert_eq!(ns.get(id).unwrap().blocks.len(), 3);
    }

    #[test]
    fn empty_file_gets_one_block() {
        let (mut ns, mut bm, mut pl) = setup();
        let id = ns.create_file("empty", 0, 256, &mut bm, &mut pl);
        let f = ns.get(id).unwrap();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(bm.expect(f.blocks[0]).size, 0);
    }

    #[test]
    fn lookup_by_name() {
        let (mut ns, mut bm, mut pl) = setup();
        ns.create_file("x/y/z", 10, 10, &mut bm, &mut pl);
        assert!(ns.lookup("x/y/z").is_some());
        assert!(ns.lookup("nope").is_none());
    }

    #[test]
    fn blocks_of_files_concatenates_and_skips_unknown() {
        let (mut ns, mut bm, mut pl) = setup();
        ns.create_file("a", 600, 300, &mut bm, &mut pl);
        ns.create_file("b", 300, 300, &mut bm, &mut pl);
        let blocks = ns.blocks_of_files(["a", "missing", "b"]);
        assert_eq!(blocks.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_name_panics() {
        let (mut ns, mut bm, mut pl) = setup();
        ns.create_file("a", 1, 1, &mut bm, &mut pl);
        ns.create_file("a", 1, 1, &mut bm, &mut pl);
    }

    #[test]
    fn replication_factor_respected() {
        let (mut ns, mut bm, mut pl) = setup();
        let id = ns.create_file("a", 1000, 100, &mut bm, &mut pl);
        for &b in &ns.get(id).unwrap().blocks {
            let info = bm.expect(b);
            assert_eq!(info.replicas.len(), 3);
            // replicas must be distinct nodes
            let mut r = info.replicas.clone();
            r.sort();
            r.dedup();
            assert_eq!(r.len(), 3);
        }
    }
}
