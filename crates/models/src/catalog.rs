//! The Table II benchmark catalog.
//!
//! Each entry names a model, a phase, and the sequence configuration used
//! in §VI-A's fusion study (Figure 10/11). LLaVA's vision encoder is
//! folded into the prompt as 576 extra prefix tokens (the projector and
//! ViT contribute ~0.3B parameters and a proportionally small share of the
//! FLOPs; the decoder dominates).

use crate::config::TransformerConfig;
use crate::llm::{build, Phase};
use sn_dataflow::Graph;

/// Vision prefix tokens for the LLaVA-1.5 multimodal benchmark.
pub const LLAVA_VISION_TOKENS: usize = 576;

/// Phase tag used in benchmark names (Table II "Configurations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkPhase {
    Prefill,
    Decode,
    Train,
}

impl BenchmarkPhase {
    pub fn tag(self) -> &'static str {
        match self {
            BenchmarkPhase::Prefill => "inf-prefill",
            BenchmarkPhase::Decode => "inf-decode",
            BenchmarkPhase::Train => "train",
        }
    }
}

/// One Figure 10 / Figure 11 benchmark.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Figure 10-style label, e.g. `llama7B-4k-inf-prefill`.
    pub name: String,
    pub config: TransformerConfig,
    pub phase: BenchmarkPhase,
    pub seq: usize,
    /// Batch size used in the fusion study.
    pub batch: usize,
    /// Sockets the benchmark runs on (FlashFFTConv uses one; everything
    /// else uses the 8-socket node — §VI-A).
    pub sockets: usize,
    /// Whether this entry is the FlashFFTConv kernel rather than an LLM.
    pub fft_conv: bool,
}

impl Benchmark {
    fn llm(config: TransformerConfig, phase: BenchmarkPhase, seq: usize, short: &str) -> Benchmark {
        let name = format!("{short}-{}k-{}", seq / 1024, phase.tag());
        Benchmark {
            name,
            config,
            phase,
            seq,
            batch: 1,
            sockets: 8,
            fft_conv: false,
        }
    }

    /// Builds this benchmark's per-socket dataflow graph.
    ///
    /// # Panics
    ///
    /// Panics on internal builder errors (a bug, covered by tests).
    pub fn build_graph(&self) -> Graph {
        if self.fft_conv {
            // 1M-element sequences via a 3-level radix-32 Monarch
            // decomposition per Table II, batched over 8 heads/filters
            // on one socket.
            return sn_dataflow::monarch::flash_fft_conv(8, 32, 4);
        }
        let phase = match self.phase {
            BenchmarkPhase::Prefill => Phase::Prefill {
                prompt_tokens: self.seq,
            },
            BenchmarkPhase::Decode => Phase::Decode {
                past_tokens: self.seq,
            },
            BenchmarkPhase::Train => Phase::Train { seq: self.seq },
        };
        build(&self.config, phase, self.batch, self.sockets)
            .expect("catalog benchmarks are well-formed")
    }
}

/// The full Table II suite in the paper's order.
pub fn table2() -> Vec<Benchmark> {
    let mut v = Vec::new();
    let llama7 = TransformerConfig::llama2_7b();
    v.push(Benchmark::llm(
        llama7.clone(),
        BenchmarkPhase::Prefill,
        4096,
        "llama7B",
    ));
    v.push(Benchmark::llm(
        llama7.clone(),
        BenchmarkPhase::Decode,
        4096,
        "llama7B",
    ));
    v.push(Benchmark::llm(
        llama7,
        BenchmarkPhase::Train,
        4096,
        "llama7B",
    ));
    v.push(Benchmark::llm(
        TransformerConfig::sparsegpt_13b(),
        BenchmarkPhase::Train,
        2048,
        "sparseGPT-13B",
    ));
    let llama70 = TransformerConfig::llama2_70b();
    v.push(Benchmark::llm(
        llama70.clone(),
        BenchmarkPhase::Prefill,
        4096,
        "llama70B",
    ));
    v.push(Benchmark::llm(
        llama70,
        BenchmarkPhase::Decode,
        4096,
        "llama70B",
    ));
    let bloom = TransformerConfig::bloom_176b();
    v.push(Benchmark::llm(
        bloom.clone(),
        BenchmarkPhase::Prefill,
        8192,
        "bloom176B",
    ));
    v.push(Benchmark::llm(
        bloom,
        BenchmarkPhase::Decode,
        8192,
        "bloom176B",
    ));
    let mistral = TransformerConfig::mistral_7b();
    v.push(Benchmark::llm(
        mistral.clone(),
        BenchmarkPhase::Prefill,
        2048,
        "mistral7B",
    ));
    v.push(Benchmark::llm(
        mistral.clone(),
        BenchmarkPhase::Decode,
        2048,
        "mistral7B",
    ));
    v.push(Benchmark::llm(
        mistral.clone(),
        BenchmarkPhase::Prefill,
        4096,
        "mistral7B",
    ));
    v.push(Benchmark::llm(
        mistral,
        BenchmarkPhase::Decode,
        4096,
        "mistral7B",
    ));
    let falcon = TransformerConfig::falcon_40b();
    v.push(Benchmark::llm(
        falcon.clone(),
        BenchmarkPhase::Prefill,
        2048,
        "falcon40B",
    ));
    v.push(Benchmark::llm(
        falcon,
        BenchmarkPhase::Decode,
        2048,
        "falcon40B",
    ));
    // LLaVA: prompt plus vision prefix.
    let llava = TransformerConfig::llava15_7b();
    let mut pf = Benchmark::llm(llava.clone(), BenchmarkPhase::Prefill, 4096, "llava1.5-7B");
    pf.seq = 4096 + LLAVA_VISION_TOKENS;
    v.push(pf);
    let mut dec = Benchmark::llm(llava, BenchmarkPhase::Decode, 4096, "llava1.5-7B");
    dec.seq = 4096 + LLAVA_VISION_TOKENS;
    v.push(dec);
    v.push(Benchmark {
        name: "FlashFFTConv-1M".to_string(),
        config: TransformerConfig::llama2_7b(), // unused placeholder config
        phase: BenchmarkPhase::Prefill,
        seq: 1 << 20,
        batch: 1,
        sockets: 1,
        fft_conv: true,
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_table2() {
        let t = table2();
        assert_eq!(t.len(), 17);
        let names: Vec<&str> = t.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"llama7B-4k-inf-prefill"));
        assert!(names.contains(&"sparseGPT-13B-2k-train"));
        assert!(names.contains(&"bloom176B-8k-inf-decode"));
        assert!(names.contains(&"FlashFFTConv-1M"));
    }

    #[test]
    fn every_benchmark_builds() {
        for b in table2() {
            let g = b.build_graph();
            assert!(g.node_count() > 0, "{} built empty", b.name);
        }
    }

    #[test]
    fn fftconv_runs_on_one_socket() {
        let t = table2();
        let fft = t.iter().find(|b| b.fft_conv).unwrap();
        assert_eq!(fft.sockets, 1);
        assert_eq!(fft.seq, 1 << 20);
        for b in t.iter().filter(|b| !b.fft_conv) {
            assert_eq!(b.sockets, 8, "{} should use the 8-socket node", b.name);
        }
    }
}
