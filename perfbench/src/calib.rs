//! A fixed calibration kernel: how fast the host runs right now.
//!
//! The benchmark shares its machine's cores and caches with other work, and
//! the same code runs up to twice as fast in one minute as in the next.
//! Every timed rep and every set-up sample is therefore bracketed by runs
//! of this kernel, and its end-to-end times are scaled by how much slower
//! than nominal the kernel ran around them. The kernel does the kind of
//! work the switch does — string-keyed maps of small fields, cloned, read,
//! written, turned into bytes and parsed back, and freed — but uses only
//! the standard library, so no change to the repository's code moves it.

use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's time in ns on the host the benchmark was calibrated on,
/// in a fast period. It only sets the scale of the calibrated metrics:
/// every comparison divides it out.
pub const NOMINAL_NS: f64 = 12.0e6;

/// Maps per kernel run, and fields per map.
const MAPS: usize = 2048;
const FIELDS: usize = 12;

/// The kernel's input: fixed, the same on every run and every commit.
#[derive(Debug)]
pub struct Kernel {
    maps: Vec<BTreeMap<String, i32>>,
    written: Vec<String>,
}

impl Kernel {
    /// Builds the input and runs the kernel once to warm it.
    pub fn new() -> Kernel {
        let mut x: u32 = 0x9e37_79b9;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as i32
        };
        let maps = (0..MAPS)
            .map(|_| {
                (0..FIELDS)
                    .map(|f| (format!("field_{f}"), next()))
                    .collect()
            })
            .collect();
        let written = ["field_1", "field_4", "field_7", "meta_out"]
            .map(String::from)
            .to_vec();
        let k = Kernel { maps, written };
        k.run();
        k
    }

    /// Runs the kernel once; returns its wall time in ns.
    pub fn run(&self) -> f64 {
        let t = Instant::now();
        self.work();
        t.elapsed().as_nanos() as f64
    }

    /// Per map: clone it, rewrite four fields, write it out as bytes (a
    /// length-prefixed name and a big-endian value per field), and parse
    /// the bytes back into a new map.
    fn work(&self) {
        let mut out = Vec::with_capacity(self.maps.len());
        let mut acc = 0i32;
        for m in &self.maps {
            let mut m = m.clone();
            for f in &self.written {
                let v = m.get(f.as_str()).copied().unwrap_or(0);
                m.insert(f.clone(), v.wrapping_mul(31).wrapping_add(acc));
            }
            let mut bytes = Vec::with_capacity(256);
            for (k, v) in &m {
                bytes.push(k.len() as u8);
                bytes.extend_from_slice(k.as_bytes());
                bytes.extend_from_slice(&v.to_be_bytes());
            }
            let mut parsed = BTreeMap::new();
            let mut rest = bytes.as_slice();
            while let Some((&n, tail)) = rest.split_first() {
                let (name, tail) = tail.split_at(n as usize);
                let (value, tail) = tail.split_at(4);
                let v = i32::from_be_bytes(value.try_into().expect("four bytes"));
                acc = acc.wrapping_add(v);
                parsed.insert(String::from_utf8_lossy(name).into_owned(), v);
                rest = tail;
            }
            out.push((m, bytes, parsed));
        }
        drop(std::hint::black_box(out));
        std::hint::black_box(acc);
    }
}

/// How much slower than nominal the host ran around a sample bracketed by
/// kernel runs of `before` and `after` ns: divide a time by it, or
/// multiply a rate.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / NOMINAL_NS
}
