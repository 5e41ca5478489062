//! The interner's count is process-global, so a test that reads it twice
//! must be the only test in its binary: any other test interning a new
//! string on another thread in between would move it.

use etable_relational::intern::{interned_count, Sym};

#[test]
fn interning_is_idempotent_for_count() {
    let s = Sym::intern("interner-test-count");
    let after_first = interned_count();
    let t = Sym::intern("interner-test-count");
    assert_eq!(s, t);
    assert_eq!(interned_count(), after_first);
}
