//! Golden pins of rendered scene bits.
//!
//! The stream determinism suites compare runs with each other, so a drift
//! in the renderer itself would pass them. These digests were captured
//! from the straightforward per-sample noise renderer (every lattice corner
//! hashed afresh for every octave of every sample) and pin every channel
//! bit of every scene at several sizes, seeds and animation frames, plus
//! raw `FractalNoise::sample` values. Any renderer optimization must leave
//! them untouched. The 203×21 and 202×18 stereo digests were added later,
//! captured from the per-octave cursor renderer that matched every earlier
//! digest, before the renderer walked the frame in column strips; they
//! pin a partial last strip and an eye boundary inside a strip.

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
type Golden = [[u64; 6]; 6];

fn configs() -> [(&'static str, SceneConfig); 6] {
    [
        ("7x3", SceneConfig::new(Dimensions::new(7, 3))),
        ("96x64", SceneConfig::new(Dimensions::new(96, 64))),
        (
            "128x64 stereo",
            SceneConfig::stereo(Dimensions::new(128, 64)),
        ),
        ("256x256", SceneConfig::new(Dimensions::new(256, 256))),
        // A width that is not a multiple of the renderer's column-strip
        // width, so the last strip is a partial one.
        ("203x21", SceneConfig::new(Dimensions::new(203, 21))),
        // 101-pixel eyes: the boundary between the eyes falls inside a
        // column strip.
        (
            "202x18 stereo",
            SceneConfig::stereo(Dimensions::new(202, 18)),
        ),
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
            [
                0xD2C9304BE34574ED,
                0x1E2C2CB7D853A1FE,
                0xC009C56AE6607B2E,
                0x2298E16A0D2A9A6D,
                0xEEB1B32913989948,
                0xD8D45B955CAE8934,
            ],
            [
                0x41EC80FBB67B019C,
                0xF1BB9572C42D4173,
                0x673AF7AFA46EEA26,
                0x4041330B21CA2FF3,
                0xCC4CF836982C1700,
                0xBD962EACEFC961F3,
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
            [
                0x7811F1CAD50B4513,
                0xC463035B3D7A193A,
                0xDCD3749CD20D5708,
                0x6C2797B5EFF52620,
                0xD513840BCD80708C,
                0x0F42A59AE0586B84,
            ],
            [
                0x37915A9FDB00EE07,
                0xA558CC6C3E2027F6,
                0x4F79C95AAF2C56D6,
                0x7E41D71C13136064,
                0xE5CC26F3D5E572DD,
                0x413AE07565617496,
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
            [
                0xECBAD35ADEBBEFAC,
                0x7A9F7C70CC541327,
                0xD54ACD8E108EB687,
                0xA3C4A6B918297DCC,
                0x217DAB1BE5B612E8,
                0x4840E82BBF18F593,
            ],
            [
                0xEEEA6EA51CF80018,
                0x978EC3DDF66AB39E,
                0x1F8E5882B1A40CAE,
                0x580E05E51E80C365,
                0xEC84F0C36F94438C,
                0x51B57B47CF000276,
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
            [
                0xD47CE93AEF3FF882,
                0x9D4419687CB2C9AF,
                0xE12763E0482B7643,
                0x645A64E98B881193,
                0xC96AAAF06B23C2E6,
                0xD42ED5E524F922B4,
            ],
            [
                0x49F7369AFBC25688,
                0x9C556403ACA12FC0,
                0xC8F871B024EF667C,
                0xD61B698BA3E3A326,
                0x4EDDFD4314EB4F76,
                0xBF72C614395AA467,
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
            [
                0x0C913B7550F3B6A5,
                0xF66D87A87297EE8A,
                0x43049CDF3137D2E9,
                0xD17B25E19B5371ED,
                0x6529436F70AEC699,
                0x22E1A610A6A21CC5,
            ],
            [
                0x4D9DAE2F70966B91,
                0xF2C1600F93B25F42,
                0xF2C34E69CF7AF9EA,
                0x55835DDE47886824,
                0xF08E21E14C534BFB,
                0x145EA832DA1AB235,
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
            [
                0xBBEBF03A163E30A0,
                0xD61EF6C7009E5DC4,
                0x6A3A18C4D2CDFF81,
                0xE0E2071B4651454F,
                0x257F6744A2BD6A20,
                0x070B8AE2E286AB5F,
            ],
            [
                0xBDA787FEDCA3A42F,
                0x74D2BB597A5031E1,
                0xC1CDFC51171839DC,
                0x8DC262B61248B497,
                0xC259A887D5BE3F06,
                0x043A27561A564809,
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
fn mono_203x21_partial_strip_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 4);
    }
}

#[test]
fn stereo_202x18_mid_strip_eye_boundary_frames_match_the_golden_digests() {
    for scene in SceneId::ALL {
        check(scene, 5);
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
