//! Fixture: a pragma that suppresses nothing.
// lint:allow(Z02): nothing on the next line copies a payload
pub fn noop() {}
