//! Zero-initialised arrays over a large, sparsely used index space.
//!
//! Program memory ([`Memory`](crate::interp::Memory)) spans the whole
//! address space up to [`Module::STACK_BASE`](crate::Module::STACK_BASE),
//! and the profiler's stack-distance trackers keep a last-access slot per
//! block of it, yet one run touches a few pages of either. A dense
//! `vec![0; len]` of that size costs nothing untouched only while the
//! allocator hands it fresh pages from the OS; when it recycles a freed
//! block instead it zeroes, and so commits, every byte, and resident
//! memory then depends on what the process happened to free before. A
//! [`ZeroPaged`] array allocates a page on its first write, so what it
//! holds tracks the pages a run uses.

/// Elements per page (log2).
const PAGE_BITS: u32 = 12;
/// Elements per page.
const PAGE: usize = 1 << PAGE_BITS;

/// A `len`-element array that reads as all zeros (`T::default()`) and
/// allocates a page of 4096 elements on the first write into it.
#[derive(Debug, Clone)]
pub struct ZeroPaged<T> {
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
}

impl<T: Copy + Default> ZeroPaged<T> {
    /// An all-zero array of `len` elements with no page allocated.
    pub fn new(len: usize) -> Self {
        ZeroPaged {
            pages: vec![None; len.div_ceil(PAGE)],
            len,
        }
    }

    /// Number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Element `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(i < self.len, "index {i} out of range");
        match &self.pages[i >> PAGE_BITS] {
            Some(page) => page[i & (PAGE - 1)],
            None => T::default(),
        }
    }

    /// Element `i`, allocating its page if this is the first write there.
    ///
    /// # Panics
    /// Panics if `i >= len`, like slice indexing.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range");
        let page = self.pages[i >> PAGE_BITS]
            .get_or_insert_with(|| vec![T::default(); PAGE].into_boxed_slice());
        &mut page[i & (PAGE - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_zero_until_written_and_allocates_only_written_pages() {
        let mut a = ZeroPaged::<i64>::new(3 * PAGE + 5);
        assert_eq!(a.len(), 3 * PAGE + 5);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(3 * PAGE + 4), 0);
        *a.get_mut(PAGE + 7) = 42;
        assert_eq!(std::mem::replace(a.get_mut(PAGE + 7), -1), 42);
        assert_eq!(a.get(PAGE + 7), -1);
        assert_eq!(a.get(PAGE + 6), 0);
        assert_eq!(a.pages.iter().filter(|p| p.is_some()).count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn an_index_past_the_length_panics_inside_the_last_page() {
        ZeroPaged::<u32>::new(PAGE + 1).get(PAGE + 1);
    }
}
