// Fixture: hot-path panic sources the `no-panic` rule must flag. This file
// is never compiled; tests scan it under a hot-path rel like
// `crates/fft/src/mixed_radix.rs`.
pub fn hot(buf: &[f64], opt: Option<f64>) -> f64 {
    let first = buf[0];
    let last = buf[buf.len() - 1];
    let v = opt.unwrap();
    let w = opt.expect("present");
    if first > last {
        panic!("unsorted");
    }
    let _ = (v, w);
    unreachable!()
}

pub fn loop_bounded(buf: &mut [f64], start: usize, k: usize) -> f64 {
    buf[start + k]
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u32> = Some(1);
        v.unwrap();
    }
}
