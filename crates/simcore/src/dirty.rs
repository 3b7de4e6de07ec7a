//! Deduplicated dirty-index worklists.
//!
//! The simulators re-derive per-host state lazily: a mutation marks the
//! hosts it touched, and the next query re-solves only those. A flag
//! vector alone makes every refresh pay O(hosts) to find and reset the
//! marks; [`DirtySet`] pairs the flags with a list of the marked indices,
//! so marking, visiting and clearing all cost O(marked).

/// A set of indices in `0..n`, kept as membership flags plus a
/// first-marked-order list holding each marked index once.
#[derive(Debug, Clone, Default)]
pub struct DirtySet {
    flags: Vec<bool>,
    list: Vec<u32>,
}

impl DirtySet {
    /// An empty set over indices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "dirty set over {n} indices");
        DirtySet {
            flags: vec![false; n],
            list: Vec::new(),
        }
    }

    /// Mark index `i`; marking an already-marked index is a no-op.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if !self.flags[i] {
            self.flags[i] = true;
            self.list.push(i as u32);
        }
    }

    /// Whether nothing is marked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The marked indices, each once, in the order they were first marked.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.list
    }

    /// Unmark everything, touching only the marked indices.
    pub fn clear(&mut self) {
        for &i in &self.list {
            self.flags[i as usize] = false;
        }
        self.list.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_each_index_once_in_first_marked_order() {
        let mut d = DirtySet::new(8);
        assert!(d.is_empty());
        for i in [5, 2, 5, 7, 2] {
            d.mark(i);
        }
        assert_eq!(d.as_slice(), &[5, 2, 7]);
        d.clear();
        assert!(d.is_empty());
        // Cleared flags let the indices be marked again.
        d.mark(2);
        assert_eq!(d.as_slice(), &[2]);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_index() {
        DirtySet::new(3).mark(3);
    }
}
