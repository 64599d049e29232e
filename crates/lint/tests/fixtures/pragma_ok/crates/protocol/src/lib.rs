//! Fixture: real findings suppressed by well-formed pragmas.

pub fn copy(bytes: &[u8]) -> Vec<u8> {
    Vec::from(bytes) // lint:allow(Z02): fixture proves trailing pragmas suppress
}

pub fn copy_again(bytes: &[u8]) -> Vec<u8> {
    // lint:allow(Z02): fixture proves standalone pragmas cover the
    // next code line, across a wrapped reason comment.
    Vec::from(bytes)
}
