//! Paged columns for the recorder's logs.
//!
//! A column grows a page at a time and never moves what it holds.
//! A doubling `Vec` copies everything on each growth and leaves its old
//! buffer behind as a hole in the heap; at the recorder's volume the holes
//! cost more memory than the logs themselves.

/// Items per [`Pages`] page.
pub(crate) const PAGE: usize = 4096;

/// Where a slice starts in a [`Pages`] column: `(page, offset)`.
pub(crate) type Loc = (u32, u32);

/// A column of `T` in pages of [`PAGE`] items.
///
/// A column is used one of two ways, never both. Filled item by item
/// ([`push`](Self::push)), every page but the last is full, so item `i`
/// sits at `(i / PAGE, i % PAGE)` and can be looked up by index. Filled
/// slice by slice ([`push_slice`](Self::push_slice)), a slice never
/// straddles two pages and is addressed by the [`Loc`] it was stored at.
#[derive(Debug, Clone)]
pub(crate) struct Pages<T>(Vec<Vec<T>>);

impl<T> Default for Pages<T> {
    fn default() -> Self {
        Pages(Vec::new())
    }
}

impl<T: Copy> Pages<T> {
    /// Items held (for an item-by-item column).
    pub(crate) fn len(&self) -> usize {
        self.0.len().saturating_sub(1) * PAGE + self.0.last().map_or(0, Vec::len)
    }

    /// Item `i` of an item-by-item column.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.0.get(i / PAGE)?.get(i % PAGE)
    }

    /// Every item, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.0.iter().flatten()
    }

    /// The `len` items stored at `at` by [`push_slice`](Self::push_slice).
    pub(crate) fn slice(&self, at: Loc, len: usize) -> &[T] {
        let start = at.1 as usize;
        &self.0[at.0 as usize][start..start + len]
    }

    /// The next `len` items of a slice-by-slice column read in the order
    /// it was filled, from `at` on, which then moves past them. They are
    /// on the next page when they do not fit on `at`'s, which is where
    /// [`push_slice`](Self::push_slice) put them.
    pub(crate) fn next_slice(&self, at: &mut Loc, len: usize) -> &[T] {
        let (mut page, mut start) = (at.0 as usize, at.1 as usize);
        if start + len > self.0[page].len() {
            (page, start) = (page + 1, 0);
        }
        *at = (page as u32, (start + len) as u32);
        &self.0[page][start..start + len]
    }
}

/// Writing: only the live handle (and the unit tests) fill a column.
#[cfg(any(feature = "enabled", test))]
impl<T: Copy> Pages<T> {
    /// Append one item.
    pub(crate) fn push(&mut self, item: T) {
        match self.0.last_mut() {
            Some(page) if page.len() < PAGE => page.push(item),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(item);
                self.0.push(page);
            }
        }
    }

    /// Append `items` on one page, starting a new page if they do not fit
    /// on the last one.
    pub(crate) fn push_slice(&mut self, items: &[T]) -> Loc {
        if self.0.last().is_none_or(|p| p.len() + items.len() > PAGE) {
            self.0.push(Vec::with_capacity(PAGE.max(items.len())));
        }
        let page = self.0.len() - 1;
        let last = &mut self.0[page];
        let at = (
            u32::try_from(page).expect("under 2^32 pages"),
            u32::try_from(last.len()).expect("under 2^32 items a page"),
        );
        last.extend_from_slice(items);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_columns_index_across_pages() {
        let mut col = Pages::default();
        for i in 0..3 * PAGE + 5 {
            col.push(i);
        }
        assert_eq!(col.len(), 3 * PAGE + 5);
        assert_eq!(col.get(2 * PAGE + 1), Some(&(2 * PAGE + 1)));
        assert!(col.iter().copied().eq(0..3 * PAGE + 5));
    }

    #[test]
    fn slices_never_straddle_pages() {
        let mut col = Pages::default();
        let mut at = Vec::new();
        for n in 0..2000usize {
            let items: Vec<usize> = (0..n % 7).map(|k| n * 10 + k).collect();
            at.push((col.push_slice(&items), items));
        }
        let big: Vec<usize> = (0..PAGE + 3).collect();
        let big_at = col.push_slice(&big);
        for (loc, items) in &at {
            assert_eq!(col.slice(*loc, items.len()), &items[..]);
        }
        assert_eq!(col.slice(big_at, big.len()), &big[..]);
        // Read back in order, knowing only each slice's length.
        let mut cursor = (0, 0);
        for (loc, items) in &at {
            assert_eq!(col.next_slice(&mut cursor, items.len()), &items[..]);
            assert_eq!(cursor, (loc.0, loc.1 + items.len() as u32));
        }
        assert_eq!(col.next_slice(&mut cursor, big.len()), &big[..]);
        assert_eq!(cursor, (big_at.0, big.len() as u32));
        assert!(at.last().is_some_and(|(loc, _)| loc.0 > 0), "several pages");
    }
}
