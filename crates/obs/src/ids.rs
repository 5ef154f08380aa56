//! Per-migration-id tables for the live recorder.

use std::collections::BTreeMap;

/// Ids per [`IdPages`] page.
const ID_PAGE: u64 = 256;

/// Ids below this index a `Vec` of pages; ids at or above it (far-sparse
/// ids, such as a slave-side handle may see) a `BTreeMap`.
const DENSE_IDS: u64 = ID_PAGE << 16;

/// One `T` per migration id, in pages of [`ID_PAGE`] consecutive ids. The
/// master mints ids densely, so pages fill up and a lookup is two array
/// indexings; a sparse id costs one small page.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdPages<T> {
    dense: Vec<Option<Box<[T]>>>,
    sparse: BTreeMap<u64, Box<[T]>>,
}

impl<T: Copy + Default> IdPages<T> {
    /// The value of `id`, `T::default()` until first written.
    pub(crate) fn get_mut(&mut self, id: u64) -> &mut T {
        let new_page = || vec![T::default(); ID_PAGE as usize].into_boxed_slice();
        let page = if id < DENSE_IDS {
            let p = (id / ID_PAGE) as usize;
            if p >= self.dense.len() {
                self.dense.resize_with(p + 1, || None);
            }
            self.dense[p].get_or_insert_with(new_page)
        } else {
            self.sparse.entry(id / ID_PAGE).or_insert_with(new_page)
        };
        &mut page[(id % ID_PAGE) as usize]
    }

    /// Every id of every page in use with its value, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let dense = (0u64..)
            .zip(&self.dense)
            .filter_map(|(p, page)| Some((p, page.as_ref()?)));
        let sparse = self.sparse.iter().map(|(&p, page)| (p, page));
        dense.chain(sparse).flat_map(|(p, page)| {
            (0u64..)
                .zip(page.iter())
                .map(move |(i, v)| (p * ID_PAGE + i, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_pages_cover_dense_and_sparse_ids_in_order() {
        let mut t: IdPages<Option<u64>> = IdPages::default();
        let ids = [u64::MAX, 0, 300, DENSE_IDS, DENSE_IDS - 1, 1 << 40, 5];
        for &id in &ids {
            *t.get_mut(id) = Some(id);
        }
        let mut want: Vec<u64> = ids.to_vec();
        want.sort_unstable();
        let got: Vec<u64> = t
            .iter()
            .filter(|&(id, &v)| v == Some(id))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(got, want);
        assert_eq!(*t.get_mut(7), None, "unwritten ids read as the default");
    }
}
