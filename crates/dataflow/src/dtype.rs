//! Element data types supported by the PCU/PMU datapaths (§IV-A: FP32,
//! BF16, INT32 in the SIMD stages, plus INT8 and complex BF16 for the FFT
//! workloads).

use std::fmt;

/// An element type carried on dataflow edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 16-bit brain floating point — the native GEMM type of the SN40L.
    Bf16,
    /// 32-bit IEEE floating point.
    Fp32,
    /// 32-bit integer (addresses, metadata, token ids).
    Int32,
    /// 8-bit integer (quantized weights).
    Int8,
    /// Complex number with BF16 real and imaginary parts (FFT workloads).
    ComplexBf16,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size_bytes(self) -> u64 {
        match self {
            DType::Bf16 => 2,
            DType::Fp32 => 4,
            DType::Int32 => 4,
            DType::Int8 => 1,
            DType::ComplexBf16 => 4,
        }
    }

    /// Real FLOPs per multiply-accumulate in this type (a complex MAC costs
    /// 4 multiplies and 4 adds).
    pub const fn flops_per_mac(self) -> u64 {
        match self {
            DType::ComplexBf16 => 8,
            _ => 2,
        }
    }

    /// Real FLOPs per elementwise multiply (a complex multiply costs 6).
    pub const fn flops_per_mul(self) -> u64 {
        match self {
            DType::ComplexBf16 => 6,
            _ => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::Bf16 => "bf16",
            DType::Fp32 => "fp32",
            DType::Int32 => "int32",
            DType::Int8 => "int8",
            DType::ComplexBf16 => "cbf16",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_formats() {
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::Fp32.size_bytes(), 4);
        assert_eq!(DType::ComplexBf16.size_bytes(), 4);
        assert_eq!(DType::Int8.size_bytes(), 1);
    }

    #[test]
    fn complex_macs_cost_more() {
        assert_eq!(DType::Bf16.flops_per_mac(), 2);
        assert_eq!(DType::ComplexBf16.flops_per_mac(), 8);
        assert_eq!(DType::ComplexBf16.flops_per_mul(), 6);
    }
}
