//! Identifiers.
//!
//! Symbols name variables, record fields, and relations throughout the
//! compiler. They are not interned: each [`Sym::new`] allocates its own
//! `Arc<str>`, and equality, ordering and hashing compare the text, so
//! two symbols built from the same name are equal without sharing
//! storage. Cloning a symbol is cheap (a reference-count bump); the
//! total order lets symbols key `BTreeMap`s in deterministic compiler
//! passes.

use std::borrow::Borrow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An identifier (variable, field, or relation name): a shared
/// `Arc<str>` compared by content.
///
/// ```
/// use ifaq_ir::sym::Sym;
/// let a = Sym::new("price");
/// let b = Sym::new("price");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "price");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(Arc<str>);

impl Sym {
    /// Creates a symbol with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Sym(Arc::from(name.as_ref()))
    }

    /// Returns the textual name of the symbol.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(s)
    }
}

impl Borrow<str> for Sym {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

static GENSYM_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Generates a fresh symbol guaranteed not to collide with any symbol
/// produced by [`Sym::new`] on a source identifier (fresh names contain
/// `'%'`, which the lexer rejects in identifiers).
///
/// ```
/// use ifaq_ir::sym::gensym;
/// let a = gensym("x");
/// let b = gensym("x");
/// assert_ne!(a, b);
/// assert!(a.as_str().starts_with("x%"));
/// ```
pub fn gensym(stem: &str) -> Sym {
    let n = GENSYM_COUNTER.fetch_add(1, Ordering::Relaxed);
    Sym::new(format!("{stem}%{n}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn equality_is_structural() {
        assert_eq!(Sym::new("a"), Sym::new("a"));
        assert_ne!(Sym::new("a"), Sym::new("b"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut set = BTreeSet::new();
        for s in ["c", "a", "b"] {
            set.insert(Sym::new(s));
        }
        let ordered: Vec<_> = set.iter().map(Sym::as_str).collect();
        assert_eq!(ordered, ["a", "b", "c"]);
    }

    #[test]
    fn gensym_is_fresh() {
        let names: BTreeSet<_> = (0..100).map(|_| gensym("v")).collect();
        assert_eq!(names.len(), 100);
    }

    #[test]
    fn borrow_str_lookup() {
        let mut set = BTreeSet::new();
        set.insert(Sym::new("k"));
        assert!(set.contains("k"));
    }
}
