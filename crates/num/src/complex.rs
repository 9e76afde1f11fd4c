//! A minimal complex-number type for the FFT.
//!
//! Only the operations the radix-2 FFT needs are implemented; this is not a
//! general complex-arithmetic library.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}` — a point on the unit circle at angle `theta` radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²` (the FFT tests' energy check).
    #[cfg(test)]
    pub(crate) fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[cfg(test)]
    pub(crate) fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex::new(3.0, -4.0);
        assert!(close(z + Complex::ZERO, z));
        assert!(close(z * Complex::ONE, z));
        assert!(close(z - z, Complex::ZERO));
        assert!(close(z + (-z), Complex::ZERO));
    }

    #[test]
    fn multiplication_matches_by_hand() {
        // (1+2i)(3+4i) = 3+4i+6i+8i² = -5+10i
        let p = Complex::new(1.0, 2.0) * Complex::new(3.0, 4.0);
        assert!(close(p, Complex::new(-5.0, 10.0)));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!(close(z.conj(), Complex::new(3.0, 4.0)));
        // z * conj(z) = |z|²
        assert!(close(z * z.conj(), Complex::from_real(25.0)));
    }

    #[test]
    fn cis_is_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
        assert!(close(Complex::cis(0.0), Complex::ONE));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let mut z = Complex::new(1.5, -0.5);
        let w = Complex::new(-2.0, 3.0);
        let mut a = z;
        a += w;
        assert!(close(a, z + w));
        a = z;
        a -= w;
        assert!(close(a, z - w));
        a = z;
        a *= w;
        assert!(close(a, z * w));
        z += Complex::ZERO;
        assert!(close(z, Complex::new(1.5, -0.5)));
    }
}
