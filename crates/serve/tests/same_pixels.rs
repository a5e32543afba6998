//! Same pixels, same answer. When an image's APF sequence exceeds the tier
//! budget, the engine drops patches to fit, and that drop is seeded by the
//! image content. So the response must be bit-identical whatever the
//! request id, whether the engine serves one request per forward or
//! batches with a cache, and whether the request arrives in process or
//! over the loopback wire protocol.

use std::sync::Arc;

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::GrayImage;
use apf_serve::{
    BatchConfig, ClientConfig, Outcome, QuotaConfig, QuotaLimit, SegRequest, ServeConfig,
    ServeEngine, WireClient, WireConfig, WireRequest, WireServer, WireStatus,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SIDE: usize = 128;

/// Random cells of `block` pixels: dense edges, so the quadtree splits far
/// past the 64-token full-tier budget.
fn noise_image(seed: u64, block: usize) -> GrayImage {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cells_per_side = SIDE.div_ceil(block);
    let cells: Vec<f32> = (0..cells_per_side * cells_per_side).map(|_| rng.gen()).collect();
    GrayImage::from_fn(SIDE, SIDE, move |x, y| cells[(y / block) * cells_per_side + x / block])
}

/// `(tokens, positive fraction bits)` of a completed in-process response.
fn answer(engine: &ServeEngine, id: u64, image: &GrayImage) -> (u64, u32) {
    let resp = engine
        .submit(SegRequest { id, image: image.clone(), deadline_ms: None })
        .wait()
        .expect("engine responds");
    match resp.outcome {
        Outcome::Completed { tokens, positive_fraction } => {
            (tokens as u64, positive_fraction.to_bits())
        }
        other => panic!("request {id} did not complete: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_pixels_give_bit_identical_answers(seed in 0u64..u64::MAX, block in 1usize..=4) {
        let image = noise_image(seed, block);
        let budget = ServeConfig::small().policy.full_len;
        let raw = AdaptivePatcher::new(PatcherConfig::for_resolution(SIDE).with_patch_size(4))
            .patchify(&image)
            .len();
        prop_assume!(raw > budget);

        let solo =
            ServeEngine::start(ServeConfig { batch: BatchConfig::solo(), ..ServeConfig::small() });
        let batched = Arc::new(ServeEngine::start(ServeConfig {
            batch: BatchConfig::from_env(),
            ..ServeConfig::small()
        }));
        let server = WireServer::start(
            Arc::clone(&batched),
            WireConfig {
                quota: QuotaConfig { default_limit: QuotaLimit::unlimited(), overrides: vec![] },
                ..WireConfig::default()
            },
        )
        .expect("bind loopback");
        let mut client = WireClient::connect(server.local_addr(), ClientConfig::default());

        let reference = answer(&solo, 1, &image);
        prop_assert_eq!(reference.0, budget as u64, "the budget trim ran");
        for id in [2, seed, seed ^ 0xDEAD_BEEF] {
            prop_assert_eq!(answer(&solo, id, &image), reference, "solo, request id {}", id);
            prop_assert_eq!(answer(&batched, id, &image), reference, "batched, request id {}", id);
        }
        let wire = match client
            .call(&WireRequest::Segment {
                deadline_ms: 0,
                width: SIDE as u32,
                height: SIDE as u32,
                pixels: image.data().to_vec(),
            })
            .expect("loopback call")
        {
            WireStatus::Ok { tokens, positive_fraction, .. } => {
                (tokens, positive_fraction.to_bits())
            }
            other => panic!("wire call did not complete: {other:?}"),
        };
        prop_assert_eq!(wire, reference, "over the wire");

        drop(client);
        server.drain();
        solo.shutdown();
        Arc::try_unwrap(batched).ok().expect("sole engine owner after drain").shutdown();
    }
}
