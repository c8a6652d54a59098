//! Golden pins of rendered scene bits.
//!
//! The stream determinism suites compare runs with each other, so a drift
//! in the renderer itself would pass them. These digests were captured
//! from the straightforward per-sample noise renderer (every lattice corner
//! hashed afresh for every octave of every sample) and pin every channel
//! bit of every scene at several sizes, seeds and animation frames, plus
//! raw `FractalNoise::sample` values. Any renderer optimization must leave
//! them untouched.

use pvc_color::LinearRgb;
use pvc_frame::{Dimensions, LinearFrame};
use pvc_scenes::{FractalNoise, SceneConfig, SceneId, SceneRenderer};

/// 64-bit FNV-1a over the little-endian bytes of `f64::to_bits` of every
/// channel, pixels in row-major order, channels in `r, g, b` order.
fn digest(frame: &LinearFrame) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for pixel in frame.pixels() {
        for channel in [pixel.r, pixel.g, pixel.b] {
            for byte in channel.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

const SEEDS: [u64; 2] = [0, 99];
const FRAMES: [u32; 3] = [0, 1, 23];

/// Per scene, per configuration: digests in `SEEDS × FRAMES` order
/// (seed-major).
type Golden = [[u64; 6]; 4];

fn configs() -> [(&'static str, SceneConfig); 4] {
    [
        ("7x3", SceneConfig::new(Dimensions::new(7, 3))),
        ("96x64", SceneConfig::new(Dimensions::new(96, 64))),
        (
            "128x64 stereo",
            SceneConfig::stereo(Dimensions::new(128, 64)),
        ),
        ("256x256", SceneConfig::new(Dimensions::new(256, 256))),
    ]
}

fn golden(scene: SceneId) -> Golden {
    match scene {
        SceneId::Office => [
            [
                0xAA04CE0535F1DEEF,
                0x7DDA37875A8DB848,
                0x4C2ECF5CC13FB64A,
                0x893B78FA2EF2D09B,
                0x7E90EE832399489F,
                0x0ABD4EC23DA67DA1,
            ],
            [
                0xA6D43C2113271681,
                0x1614C683E0F76FF0,
                0x04FFDA2A707229C4,
                0x203EF727916268E0,
                0x84E2E611D359DBC0,
                0xC0082BBC884F9ADD,
            ],
            [
                0x9CD73C36956935FE,
                0x8C4C3CF554B6C33A,
                0x5177517456DA1AD1,
                0x104233A7306E446D,
                0xF134F9D2F1957340,
                0xB1A6223BE45D6F65,
            ],
            [
                0x50AAC880CA25C691,
                0xDD30205639AA0628,
                0x327437AA32E6B37B,
                0x82D2772AAFEE9271,
                0x8974A50E5E09D968,
                0xEBF80601B52B9302,
            ],
        ],
        SceneId::Fortnite => [
            [
                0x477FF81C06304C6A,
                0xC6A770AA1A6A7B43,
                0x52D2588D6D2FEBCC,
                0x92BCC6D8783EFEDE,
                0xC4104D1B7CC41FF7,
                0x29402B53ED8294BF,
            ],
            [
                0x5B711BC86D5F6575,
                0x5C37FB9447F34CA9,
                0xE20DE0A35EDAB76B,
                0xAC29511E878E4B46,
                0x9EF0B6D97DDBC664,
                0x045C5A678A6B06BA,
            ],
            [
                0xDF22271F860B6235,
                0x58300465EB303558,
                0x791E7BC365475C11,
                0x49CAA3DDA1CC1E55,
                0x6558E21418D643E7,
                0x11D7FE22ABCA9841,
            ],
            [
                0x2280359B6699070F,
                0x52C52205AEFF4CFD,
                0xF55878C17A4F24C0,
                0x92AA537B0E6A52B6,
                0x58F3F54397C44879,
                0x39F030B6381CC479,
            ],
        ],
        SceneId::Skyline => [
            [
                0xEB9FD40FC87F2335,
                0xEB9FD40FC87F2335,
                0xEB9FD40FC87F2335,
                0xAD91AE4864782B14,
                0xAD91AE4864782B14,
                0x13674EF1CD0AFBDC,
            ],
            [
                0x302BA3CBA1D5D034,
                0x98E06EE9F60599B0,
                0x3EEADC4248A27EA3,
                0xDD27F5462501D606,
                0x9847A403C0829994,
                0xCAA7713220DB4963,
            ],
            [
                0xAB1C4E7CBA9E795F,
                0x24BF2D3283FF4AA8,
                0x9F90EB4C7269080B,
                0xDC41E14B30C5F1F2,
                0x6FEA3C9A79A22C2F,
                0xAF93F8E24BBE2E68,
            ],
            [
                0x9A90E2C83AD1E595,
                0x2DEFAC1D70746B8F,
                0xECFF2CB513BA8B4E,
                0x7A372F428D2DF299,
                0x2ECFEC44888C2B65,
                0x044FE85BE2B54678,
            ],
        ],
        SceneId::Dumbo => [
            [
                0xA553E853C8D5F06A,
                0x221B5E867808E742,
                0xA8D652E856FDA679,
                0x5DE4341BC02537A6,
                0xA16353BABDFCA874,
                0x92F30D623A43039D,
            ],
            [
                0x776CA36C57A2A7CC,
                0xF24117652DA03B0E,
                0x200BC6424FF417D3,
                0x88920D57B1803985,
                0x2B7087DE5F1AA5D4,
                0x364E0EB4BB27C4E5,
            ],
            [
                0x0F565A8C265B5DE9,
                0x4991015E8866F883,
                0x99DB0CD3835309F5,
                0xC9474F725CCB256F,
                0x3A3EF3F7FA7E9B20,
                0xEECF5DB7A05A276B,
            ],
            [
                0xB6B817D5DBDC07EB,
                0xAC118267623D127E,
                0x9FF3419CA03A3DB1,
                0x3E17782D7261070F,
                0x4874AD8150515600,
                0x80E66B3896E3E694,
            ],
        ],
        SceneId::Thai => [
            [
                0x901C497ADD190E00,
                0x674CCA12D0C27F0D,
                0xB7A0B38555ECE64C,
                0xBDE4EEED74F482BF,
                0xFC20BC9DC65999FA,
                0x7492DA3B7653D959,
            ],
            [
                0xBD405081A99D5744,
                0x523B2497787F1C8E,
                0x83FD7168FF720FD4,
                0xB21ED57F50635409,
                0xEF44ADEA97FDD5DE,
                0x700E7A36C919AC38,
            ],
            [
                0xA462D33B095B3F7B,
                0x208577BC85F2D139,
                0x36AD93EE46CA2806,
                0xAD3E7787EDA662F0,
                0x7AE11D62EEAE1FCE,
                0x75517F522606415E,
            ],
            [
                0x76A6677313A407E6,
                0x5BEB611A4C096819,
                0xDC0B3C6A012BD79E,
                0x403BAE2F76F7863B,
                0x7C3EB9E2812363A2,
                0x276BFFC122EF363F,
            ],
        ],
        SceneId::Monkey => [
            [
                0xEA82242AAD9D4233,
                0xB7902B0078D4B986,
                0xA224A9C05E6F4EBB,
                0x9975D4C1894E421B,
                0x377A3616B05EE7C4,
                0x01B3113F781B4045,
            ],
            [
                0xD3539CE9E4F656B4,
                0xB92E0B70F0E62A93,
                0xE972085F2D7965AE,
                0xFB57430CB0FD2235,
                0xA6D3AB72E6095A1C,
                0x9B3AAC33C3E4CFA5,
            ],
            [
                0x5F7B42923C191457,
                0xFEAB488F66E5EEF0,
                0xFB42CF86387091E3,
                0x05AF05CD1E73AB89,
                0x2DC5C33269B425CF,
                0x2361BA92F395681E,
            ],
            [
                0x4C67D74A6D56B201,
                0x9E6649FA2AE00CB6,
                0x3091897AFA08292C,
                0x950874C232A1C44E,
                0x1A5E607A181B03B9,
                0x83C29F0B6E52B26F,
            ],
        ],
    }
}

/// Checks every seed × frame of one scene at one configuration, reporting
/// all mismatches at once.
fn check(scene: SceneId, config_index: usize) {
    let (label, config) = configs()[config_index];
    let expected = golden(scene)[config_index];
    let mut mismatches = Vec::new();
    let mut frame = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
    for (s, &seed) in SEEDS.iter().enumerate() {
        let renderer = SceneRenderer::new(scene, config.with_seed(seed));
        for (f, &index) in FRAMES.iter().enumerate() {
            renderer.render_linear_into(index, &mut frame);
            let got = digest(&frame);
            let want = expected[s * FRAMES.len() + f];
            if got != want {
                mismatches.push(format!(
                    "seed {seed} frame {index}: got {got:#018X}, want {want:#018X}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{scene} at {label} drifted from the golden render:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn tiny_7x3_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 0);
    }
}

#[test]
fn mono_96x64_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 1);
    }
}

#[test]
fn stereo_128x64_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 2);
    }
}

#[test]
fn mono_256x256_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 3);
    }
}

#[test]
fn fractal_noise_samples_match_the_golden_values() {
    let noise = FractalNoise::new(0xC0FFEE, 4, 0.55);
    // (x, y, scale, bits): the origin and other points exactly on integer
    // lattice lines, negative coordinates, and a fine scale.
    let cases: [(f64, f64, f64, u64); 7] = [
        (0.0, 0.0, 1.0, 0x3FD55CBC25F4DAA5),
        (1.0, 2.0, 1.0, 0x3FD80EE8C0E74470),
        (0.5, 0.25, 8.0, 0x3FD37B6B3FFABD2E),
        (-0.5, -2.25, 3.0, 0x3FE3C54A9C4124C9),
        (-1.0, 3.0, 2.0, 0x3FCD9E8CF98F3B20),
        (123.456, -78.9, 0.5, 0x3FE536BEC2F9078F),
        (0.3, 0.7, 24.0, 0x3FDDCC34004860F0),
    ];
    for (x, y, scale, bits) in cases {
        let got = noise.sample(x, y, scale);
        assert_eq!(
            got.to_bits(),
            bits,
            "sample({x}, {y}, {scale}) = {got}, want {}",
            f64::from_bits(bits)
        );
    }
}
