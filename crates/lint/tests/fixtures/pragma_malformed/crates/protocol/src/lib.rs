//! Fixture: pragmas missing a reason or naming an unknown rule.
// lint:allow(Z02)
pub fn a() {}
// lint:allow(Q99): no such rule
pub fn b() {}
