"""Per-type applier output digests: ``ENGINE_VERSION`` made enforceable.

A logged chain replays bit for bit only while every applier computes
exactly what it computed when the chain was written, and the engine
promises to bump ``ENGINE_VERSION`` whenever any applier's output moves by
even the last bit. This test makes that promise mechanical. Each of the 43
types is applied to a frozen seeded clip with two frozen specs and
synthetic noise and room-impulse pools, and the sha256 of every float64
output is compared with the table recorded for the current
``ENGINE_VERSION``. Changing an applier's arithmetic fails here until the
version is bumped and the new version's table recorded (older tables
stay). The specs were drawn once from the default bounds, keeping per type
the first two draws whose outputs differ from the clip and from each
other, and are written out below, so a change to the parameter sampler
cannot move them.

The alignment of delayed chains is part of the same promise: ``ALIGNMENT``
pins, per version, the offset and the trimmed pair of 48 chains built from
those specs (see the section below).

FFT and filter code in numpy and scipy can move last bits too, which is
why the ``distort`` log header names both versions. ``RECORDED_ON`` lists
the builds a table was recorded on. On any other build the test does not
skip: it runs the same comparison. If the digests match, the build computes
the recorded bits and can be added to ``RECORDED_ON``. If they do not, the
test fails and its message names the build as unrecorded: bits that move
with the build break the replay of logs written on a recorded build just
as an applier change does.
"""

import hashlib
from importlib import metadata

import numpy as np

from scorewave.distort import ENGINE_VERSION, PRIMITIVES, ChainConfig, DistortionSpec, apply_chain
from scorewave.signal import Signal

RATE = 16_000

# (type, params, applier seed): two per type, in registry order.
SPECS = [('band_pass', {'freq': 530.3313712683922, 'q': 0.9184552775396888}, 404743789),
     ('band_pass', {'freq': 1088.7460046888948, 'q': 2.8877574537131667}, 1195967771),
     ('high_pass', {'freq': 1281.3976098491373, 'q': 1.7606584004494719}, 1787579136),
     ('high_pass', {'freq': 507.68425259967336, 'q': 1.9234442574797974}, 2140636123),
     ('low_pass', {'freq': 1232.385711248768, 'q': 1.491798500965176}, 436207415),
     ('low_pass', {'freq': 885.597924617973, 'q': 1.815073371986784}, 703227066),
     ('down_sample', {'factor': 8, 'method': 'hold'}, 1727352695),
     ('down_sample', {'factor': 2, 'method': 'hold'}, 238620757),
     ('mu_law', {'bits': 8, 'mu': 255.0}, 1029795634),
     ('mu_law', {'bits': 4, 'mu': 255.0}, 1331499564),
     ('plosive_boost', {'freq': 176.98633446886817, 'gain_db': 15.170887695775306}, 2103284178),
     ('plosive_boost', {'freq': 174.4840724456411, 'gain_db': 6.70654254243971}, 1065291436),
     ('sibilance_boost', {'freq': 6855.711554343238, 'gain_db': 14.08199559350119}, 1107598113),
     ('sibilance_boost', {'freq': 6828.017317420508, 'gain_db': 8.331701937385589}, 1368264542),
     ('overdrive', {'gain': 11.379642277048324, 'mix': 0.769238315163993}, 339076755),
     ('overdrive', {'gain': 8.821560308404562, 'mix': 0.7647151620872428}, 775746263),
     ('clip', {'threshold': 0.8098792905423334}, 698052969),
     ('clip', {'threshold': 0.32076038683194086}, 1733847527),
     ('compressor',
      {'threshold_db': -14.152042501373796,
       'ratio': 5.817840477952598,
       'attack_ms': 2.2331992155850546,
       'release_ms': 269.36446835010776},
      1769783972),
     ('compressor',
      {'threshold_db': -10.447807249763688,
       'ratio': 5.862283504935286,
       'attack_ms': 2.375149852449887,
       'release_ms': 118.27719272714707},
      835000937),
     ('destroy_levels',
      {'segment_ms': 462.7214515690324,
       'prob': 0.6923892344400988,
       'gain_db_lo': -35.0,
       'gain_db_hi': -5.0},
      1601258069),
     ('destroy_levels',
      {'segment_ms': 267.1399369198709,
       'prob': 0.46675939075009404,
       'gain_db_lo': -35.0,
       'gain_db_hi': -5.0},
      1404113350),
     ('noise_gate',
      {'threshold_db': -59.695352523869424,
       'attack_ms': 4.197904490746586,
       'release_ms': 34.17687300732532},
      1583918220),
     ('noise_gate',
      {'threshold_db': -34.12483771479181,
       'attack_ms': 6.583532831535615,
       'release_ms': 62.6307860457419},
      541979823),
     ('simple_compressor', {'ratio': 2.1284710740478925}, 17800855),
     ('simple_compressor', {'ratio': 3.647371329735612}, 974526664),
     ('simple_expander', {'ratio': 1.923300359845956}, 1234219885),
     ('simple_expander', {'ratio': 2.357993315687415}, 872716270),
     ('tremolo', {'rate_hz': 4.6460273558544705, 'depth': 0.3924788940436642}, 1719897572),
     ('tremolo', {'rate_hz': 0.8320306534455746, 'depth': 0.3599894362210013}, 2033282116),
     ('band_reject', {'freq': 3003.7820694043826, 'q': 1.7527364576807445}, 1631639995),
     ('band_reject', {'freq': 829.7094271411455, 'q': 1.2191154037402492}, 117402872),
     ('random_eq',
      {'n_bands': 5,
       'freq_lo': 100.0,
       'freq_hi': 7000.0,
       'gain_db_lo': -12.0,
       'gain_db_hi': 12.0,
       'q_lo': 0.5,
       'q_hi': 5.0},
      1283809626),
     ('random_eq',
      {'n_bands': 9,
       'freq_lo': 100.0,
       'freq_hi': 7000.0,
       'gain_db_lo': -12.0,
       'gain_db_hi': 12.0,
       'q_lo': 0.5,
       'q_hi': 5.0},
      453560339),
     ('two_pole', {'freq': 349.1596779023844, 'radius': 0.9497277386032632}, 1321788725),
     ('two_pole', {'freq': 521.8840560346986, 'radius': 0.9686895235528419}, 370653146),
     ('additive_noise', {'snr_db': 1.9479225116824512}, 191506956),
     ('additive_noise', {'snr_db': 19.95728960922278}, 1323178870),
     ('impulsive_noise',
      {'snr_db': 4.006523371378243, 'rate_hz': 0.7583012024152852, 'burst_ms': 48.05057788087425},
      1902186736),
     ('impulsive_noise',
      {'snr_db': 18.447857306303607, 'rate_hz': 0.9187803398893377, 'burst_ms': 6.001517519183616},
      1789045545),
     ('algorithmic_reverb', {'t60': 0.7309007891240888, 'wet': 0.550453674255843}, 2125352594),
     ('algorithmic_reverb', {'t60': 0.676570801448278, 'wet': 0.49268369775392246}, 1382740396),
     ('rir_convolution',
      {'t60': 0.8133127550338081,
       'ir_ms': 337.2376493275994,
       'predelay_ms': 7.853249331674135,
       'wet': 0.7771291525794546},
      1389946673),
     ('rir_convolution',
      {'t60': 0.8777589187904146,
       'ir_ms': 281.3291781194307,
       'predelay_ms': 13.631440507176825,
       'wet': 0.5167088984051915},
      1296865685),
     ('short_delay', {'delay_ms': 1.0750336500518165, 'gain': 0.971007342431601}, 1955965626),
     ('short_delay', {'delay_ms': 5.358002544833941, 'gain': 0.7166013628260777}, 59158017),
     ('griffin_lim', {'window': 512, 'iterations': 22}, 37673672),
     ('griffin_lim', {'window': 512, 'iterations': 19}, 1896151621),
     ('phase_randomization', {'window': 512, 'amount': 0.3803744210985497}, 1477270116),
     ('phase_randomization', {'window': 1024, 'amount': 0.9938580851812195}, 920840773),
     ('phase_shuffle', {'window': 1024, 'amount': 0.623590905812504}, 1857665234),
     ('phase_shuffle', {'window': 512, 'amount': 0.39086763487493015}, 474700605),
     ('spectral_holes',
      {'window': 1024, 'n_holes': 4, 'max_bins': 40, 'max_frames': 20},
      1366246954),
     ('spectral_holes',
      {'window': 256, 'n_holes': 15, 'max_bins': 40, 'max_frames': 20},
      1819134285),
     ('spectral_noise', {'window': 1024, 'amount': 0.4682746660941037}, 1453051889),
     ('spectral_noise', {'window': 256, 'amount': 0.21774468819050985}, 454603393),
     ('colored_noise',
      {'snr_db': 17.970868293709326, 'slope_db_oct': -2.561897135084019},
      1148482225),
     ('colored_noise',
      {'snr_db': -4.474536176827638, 'slope_db_oct': 3.20954142833469},
      1381244715),
     ('dc_component', {'amplitude': 0.05942018464711466}, 836585155),
     ('dc_component', {'amplitude': 0.07210189317513394}, 858811297),
     ('electricity_tone',
      {'snr_db': 4.369700101698115, 'freq': 50.0, 'waveform': 'sawtooth'},
      433838155),
     ('electricity_tone',
      {'snr_db': 11.4915766900107, 'freq': 60.0, 'waveform': 'square'},
      1103000959),
     ('nonstat_colored_noise',
      {'snr_db': 12.70454527900338,
       'slope_db_oct': 2.1058739708287817,
       'segment_ms': 969.4928385453902,
       'prob': 0.5950593256491812},
      1944690738),
     ('nonstat_colored_noise',
      {'snr_db': 14.554163269281233,
       'slope_db_oct': 5.6853150629016245,
       'segment_ms': 241.89359806947604,
       'prob': 0.4540719818346672},
      922325264),
     ('nonstat_dc_component',
      {'amplitude': 0.057269037924797164,
       'segment_ms': 872.8840539721707,
       'prob': 0.6529225423947546},
      1161905459),
     ('nonstat_dc_component',
      {'amplitude': 0.03173643455216931,
       'segment_ms': 322.5069615044328,
       'prob': 0.3580908968075468},
      27652923),
     ('nonstat_electricity_tone',
      {'snr_db': 13.893816929788297,
       'freq': 50.0,
       'waveform': 'sine',
       'segment_ms': 301.9415276126605,
       'prob': 0.21837550985053295},
      526157755),
     ('nonstat_electricity_tone',
      {'snr_db': 0.5233058780993343,
       'freq': 50.0,
       'waveform': 'square',
       'segment_ms': 958.378532993645,
       'prob': 0.5377637804638885},
      670029781),
     ('nonstat_random_tone',
      {'snr_db': 14.638914558323144,
       'freq': 282.93453477142833,
       'waveform': 'square',
       'segment_ms': 582.7598887973505,
       'prob': 0.27466942407163925},
      1133053395),
     ('nonstat_random_tone',
      {'snr_db': 1.706835932027083,
       'freq': 3933.1017806864897,
       'waveform': 'square',
       'segment_ms': 205.77740464763477,
       'prob': 0.6070022185288184},
      268742421),
     ('random_tone',
      {'snr_db': 5.294526905885322, 'freq': 3121.3491577720356, 'waveform': 'sine'},
      236148951),
     ('random_tone',
      {'snr_db': 4.278529146540665, 'freq': 1849.0808054664192, 'waveform': 'sine'},
      1154844616),
     ('frame_shuffle', {'frame_ms': 27.4436178797419, 'prob': 0.3812211359054407}, 1223146148),
     ('frame_shuffle', {'frame_ms': 75.37851642541224, 'prob': 0.5905364855397063}, 510716193),
     ('insert_attenuation',
      {'segment_ms': 49.05634827338709,
       'prob': 0.42942517131283897,
       'gain_db': -22.045739454778822},
      448456766),
     ('insert_attenuation',
      {'segment_ms': 116.87765275803943,
       'prob': 0.31239438347520054,
       'gain_db': -23.82165388496925},
      70110936),
     ('insert_noise',
      {'segment_ms': 48.24733456810333, 'prob': 0.40015291772432793, 'snr_db': 10.642547883042413},
      324928924),
     ('insert_noise',
      {'segment_ms': 37.16897739559509, 'prob': 0.32950399510743333, 'snr_db': 8.761035684812189},
      523418050),
     ('perturb_amplitude',
      {'segment_ms': 59.047787878824174,
       'prob': 0.6218106002245526,
       'gain_db_lo': -8.0,
       'gain_db_hi': 8.0},
      229718486),
     ('perturb_amplitude',
      {'segment_ms': 372.569578580098,
       'prob': 0.4484114573783535,
       'gain_db_lo': -8.0,
       'gain_db_hi': 8.0},
      1726249574),
     ('sample_duplicate', {'block_ms': 14.953214609121067, 'prob': 0.29831759880835096}, 974240850),
     ('sample_duplicate', {'block_ms': 2.4224882000485253, 'prob': 0.2218619316481105}, 2117329648),
     ('silent_gap', {'gap_ms': 104.62182174215884, 'prob': 0.1414328361537654}, 1616894008),
     ('silent_gap', {'gap_ms': 41.84566824570598, 'prob': 0.1982593411140655}, 1078184933),
     ('telephone',
      {'low_hz': 300.7805051785597, 'high_hz': 3105.5848306484854, 'ratio': 2.7495102351614618},
      1682922040),
     ('telephone',
      {'low_hz': 256.1029494379248, 'high_hz': 3299.3115831658665, 'ratio': 3.3395578305567195},
      1304464902)]

# ENGINE_VERSION -> type -> sha256 of the two specs' float64 outputs.
DIGESTS = {
    2: {
        'band_pass': ('f30788c46e69826231f5d4ad1a6d6763adfb852f3b6aeb8f1d0c9f5790280f02',
                     'e286ab2284cbb2b2edaa76473b50c1609dc0ca37852c1e76fc5824f20a7888f9'),
        'high_pass': ('d8104701f5da26b9915af78b5c191794ba309d07071f328abd66fbff2da283cc',
                     'c40b235e8d927761dd06519940a6478fcb9c8aa01a2d3305216fb9f379f6edac'),
        'low_pass': ('f9ecd12ce5624dff5c8cdb5ac7cfc15a471e11bad1fe3082240157cc3eae60f6',
                    'f5e63a1ae1957775671a1fd6e732f294539150028861744af1ac11008a40a07b'),
        'down_sample': ('a8e8116f3ffbc913b3486c09c84218db9fa1c70397434805cf0ffce9d12dd67d',
                       '045203f11f32edcbfcaaca7ef6786b5e164a090a939aca2c6415f009f1ca3434'),
        'mu_law': ('f08efd1abd81febd209a600242cc9b687306d09f2228b664e9d7a936f326a2d4',
                  '0ef58a4846c178e344f999eea70559dc31a0348110d4fd7ececa1fa79dc9b315'),
        'plosive_boost': ('752885e7a589ea4e557b71f7ab250768d14da770a4f9f446ec3c27846b95b41b',
                         '7108e247f1a63ba2dbdef4f92789a29729031f615f8d65fdac79b2b9c09c3441'),
        'sibilance_boost': ('231368b595eed07726596b2e589d9ce10769dae13da40e63224e4ca2e974754e',
                           '8f1f0c44e32809dd349acd03e682ace145881b90fa7eae5a810e497e8c9f6b9e'),
        'overdrive': ('62de9f170f1a578b680749f40f18bb76510b3d5fe7461239d5fc9efb568b4c9d',
                     '41beeef1791abf1f9ea3e7a9a6666ba651af31d82a7053a38aa42a5a6f7ca13d'),
        'clip': ('1afc0bf30bef6832fed431e3acc69d6e40a075fd68c7c4ac0cc6c9342310a366',
                '6b22c5bcf87a4fe77222001068a62792312de12897a5ed8858338fea38170e8e'),
        'compressor': ('b7ab1629fdc23a15e0bc309da35bc6053e2fbc048c95cd2897d0e1440bf92b67',
                      '8fddd215af032de97a816947b2c0cafd031b0cb69439b63e71f88ec44c5e3c7d'),
        'destroy_levels': ('b28ed940575b8d816874c5bacbcf56ec1f5e876074a2120b861270f46cf05a21',
                          'e0c36928323a10749d0647bc436f2ed095f7a233099e9c6a42fa6fa943cfe4c8'),
        'noise_gate': ('9839cedc31bc06c1f0937a0ca20aed656b5ffd0c14b84f8fafb52646a34c6b34',
                      'ebf014a3a187d2590d1e95c83ba42279fd9c3b7d53ca7c586af70455e5e27eeb'),
        'simple_compressor': ('7b2f02e74f7c16ef7f8c0f9f3de2faa3efa5bdcd183d3dbf4a26f76cb2523553',
                             '0cbad3f3fcae5f152acb5d8af9f36c2daa389d5fbf87ef995e8027cbe0cbef3a'),
        'simple_expander': ('f314acaee56e524fffee304f68e8a9fc7a43fcb9ef0af163e582fbb653ee0dba',
                           '3d75c15d59c9cf9d1d30604bc174349c20ec98ed23fa17728f2fcebbaf38ea52'),
        'tremolo': ('37ea4f57ff038a012dfd875a60524336346b2a4b6a92081f4ac1a95f5980c72e',
                   '4add2b7f25452cb507ae8e1459e21c4bb29a91c22edc3d7384ed75f8ff6162a5'),
        'band_reject': ('7376f3521c8a6ea3194569271334d58e92c7e915210b508bcc9383c190ee03bd',
                       '993cd8ee379ce31e417deec120f6ed0d9a16009f56ad1414a172f32932497925'),
        'random_eq': ('fe83af75f2aa3d5e259f37f7fa201fd2e65b957cb9100d2267ede21889a40f25',
                     '9d380cdd65c6d12d30a684bf5062bccd235a347e87a93c9fb1d962174ee10bea'),
        'two_pole': ('db53f4bd851f7a4b094317fd66443fb06518120d212688dc50470e86719d683e',
                    '2a3c1a16e79dcf7c6bdc741d8061ec66374e9b60365b4e76f6ae6c089f3db48d'),
        'additive_noise': ('41327a48dfe5ff592243ecf167a654094e3d6530c0aed0ff5c113bd1ba159615',
                          '3a7791d2b09ba9cb3374ff35c97d15d75e8b476ced011717a58a55b4d7cd126f'),
        'impulsive_noise': ('1e4eda65726f5cb4cdc7112abab79c354444fccd9c2a4dfe8280343c8813dd21',
                           '25e718fe98fbf44494e1b27d9a82087c5f9124b9eedf710b6056ddfdf3fb189f'),
        'algorithmic_reverb': ('1c1034479c444b472d24033e85dbfd040f3fda8c53d33fc9540addd8847fad05',
                              '3d5b5b2b0baf5c788ae8a44d250ab74cdfbc3d921faccbdffbbe1cae4370475b'),
        'rir_convolution': ('c949f38d9ea26e035be31fe0bdac67caadf2b5416e9c88afa57006ccd6379240',
                           '28550f33539ba1ff1809443c6e42569a8e6ef49fb111928d4688310241a50708'),
        'short_delay': ('70f13a5658773e1dd19f9820b8b9c2a79edf78993a7dac696a344778c555cfde',
                       'd65c98212af52113faa908b65f6334ab771583eb6a8f650edafa7a079b03f795'),
        'griffin_lim': ('a861434c22488b37e50b70ae78009695dc3ef9a2eba0ed2566ab19836fc8406b',
                       'c572c2eee117c2273b602bdecd2acde6a5a2e122b6d48785e1813222e1bc0f99'),
        'phase_randomization': ('2d7122c1ecb0182efbc5ce83a2696ef8ded7d77eaa578c00ba39d85d8896eebc',
                               '86673bc948bbc4d7669d24d2bdd259cea871b51ea8bfe3fbd1ff7cf8b6576536'),
        'phase_shuffle': ('3c7871589c745530db61ac4c5ade39366d382855293406eb00493610727d201c',
                         'db58458ddc5cbca6d9e85d34de0f4f2290ba796f16d2b096d7bf996a5e6d9305'),
        'spectral_holes': ('1c33778625144f350cf6c73a7496c79f95f4fb1423005c2696ea61a38521d7d8',
                          '3350562c655f95b86e01d185d034454c2655bf78880e8177ad0b6b613a1c0ccf'),
        'spectral_noise': ('a896d21563446da4152268c22413210eea9afab0a1649196d73a643ea188c67c',
                          '9f1875d87eaa4c7cbc10e3745b3beaac188060b938dd49cdaf39fa71dc0f7431'),
        'colored_noise': ('b81cfc7bb1a21b10ed62a9381d843eaee1257a742faa8e12ae675f109b973da3',
                         'd37ad6528f4aaa5f7224bb4b8b44974b252d98d6ed2fb7e0ed439ea86a002998'),
        'dc_component': ('0c8d646e0f74214c1798858f11f8940d09c1afe64cd2f1a612b645c9e350efab',
                        '97cb98faea902ec8bb503c562ca7a6a83f513e04e46abae35672642c054d5d69'),
        'electricity_tone': ('6047983c3a753eb4d24ea524eb63aee4074adf8f5573cf53960f56f8a89ebd89',
                            'b449457b12828b7209537833bbcfd4048696dc5b3a2922bef87ea39d43f7501a'),
        'nonstat_colored_noise': ('6e8fef6588a421fc0cd6720a7531f37c7e2bd7562dad42076e63230f42375c57',
                                 '9d1abb29d119abe1c0aed8ded57cddf270ef8d0c184747ba21520d7b06848cd1'),
        'nonstat_dc_component': ('7c848cc3fcff892fc93fcebd5b60c1a49ec8c791250eda32b6befff9df8b0f32',
                                'c349074707889b719eafd813abcea7cb40915758f6216f7931db7704ce2df382'),
        'nonstat_electricity_tone': ('3daab50438a69e2c7a91cac3ff85b615e7513217fc26f2fd5494c930ea8aab2f',
                                    '96aeec5b7af43196fe75a39807de4a71610936798381e4e82bdc61010f95731a'),
        'nonstat_random_tone': ('a268a280c8a77e9134429244e173c9add64438dac0644aa3bf7cec25b7959ffc',
                               '4513c1f80ef6e3d6c599a9eabf88e713c569f9aeafcf78c249dca3b79751842b'),
        'random_tone': ('5da4ed3060a69824c7c49572e2f5b8ca5fe325230ab5d8b879a2f5fbc46f37b1',
                       '2c49cdb8b0b0eca1cc6686606cf43f93b7370e9234178d5f71cfdc7498bde7ad'),
        'frame_shuffle': ('8df05499ee70ace5b17dbd9bc09f942eddfc90f07b16a26f01af57862da291a8',
                         'caacf612505f87dc9ffd715a6bf41e8dfdda2456a55d76b8e410d31991878cfa'),
        'insert_attenuation': ('2ca2123d4986d37b89adfc71e4b746ca5dfe41d217ab42ae1ef98d255d67a5cf',
                              'd01dccc718dd579ffc448dcd2192a90f3208366f6ab13626eb365af65af09d05'),
        'insert_noise': ('0574796efe6ce94f6d422a8d348df4012e010b6b4987aa155f44f7ab169f4ea8',
                        'c5d18fcd5ee8ab3bd9897ceb9356b4bcc4d732fcc18c808be9eefccd87ea067b'),
        'perturb_amplitude': ('0d82e220d74f8de5a969d09be9b7a27a22fc25641da2934dc2faecbae943fcb0',
                             '239e2028f9d6965608e42b8794e3cb5c28401fd897c5c09e57aee67964db360d'),
        'sample_duplicate': ('77792e542429620c3fe9c2bacffcef47a533e7cbdb00ae107f0e0f6174632a5a',
                            'bf935ba7cbda335dd25b16c6a84e6c609a3d6abc8c80bacbe7e6cebe88e7f80c'),
        'silent_gap': ('67ae9239377250cd5656948342d4fbe71e2ff3bebbaa4965f792e3793b521c2a',
                      '42661329e243568a1c535f0460e881672864c1e9bdb07f80cd7a798c05e2a058'),
        'telephone': ('0e433ee543ab9d23e7be52a524ef461b3fd03fe78099892741b81bfc24d4c420',
                     '09810903d3dde0c21525433d2c8b120a709403a807c70f21e28846ec602f3357'),
    },
}
# Version 3 changed only the alignment (see ALIGNMENT below); no applier moved.
DIGESTS[3] = DIGESTS[2]
# Version 4 draws Griffin-Lim's first phases as mag * (cos, sin) and projects
# as z * (mag / |z|), and convolves room impulse responses by one FFT. On this
# 1 s clip, shorter than 13 times either response, `oaconvolve` already ran as
# one FFT, so only `griffin_lim` moved.
DIGESTS[4] = {**DIGESTS[3],
              'griffin_lim': ('5cd4aaeb3e3f3a358708f662f6090e6222701c9d0e00305ed95fbcb06326692d',
                              '74506fdc79fd80ee22a3265831f1db5df3db08be6d1cc8b9159815492e3ee436')}
RECORDED_ON = {2: [{"numpy": "2.4.6", "scipy": "1.17.1"}],
               3: [{"numpy": "2.4.6", "scipy": "1.17.1"}],
               4: [{"numpy": "2.4.6", "scipy": "1.17.1"}]}


def frozen_clip() -> np.ndarray:
    """1 s at 16 kHz: a vibrato-modulated harmonic voice with a syllable
    envelope, a quiet gap and a little noise, all from one seed."""
    rng = np.random.default_rng(20_220_607)
    t = np.arange(RATE) / RATE
    f0 = 140.0 * (1.0 + 0.05 * np.sin(2.0 * np.pi * 5.0 * t))
    phase = 2.0 * np.pi * np.cumsum(f0) / RATE
    voice = sum(np.sin(h * phase) / h for h in range(1, 9))
    envelope = np.clip(np.sin(2.0 * np.pi * 2.5 * t), 0.0, None) ** 0.5
    envelope[int(0.6 * RATE) : int(0.7 * RATE)] = 0.0
    return 0.3 * envelope * voice + 0.01 * rng.standard_normal(RATE)


def frozen_assets() -> dict:
    """A long and a short noise recording (crop and tile paths) and two
    decaying room impulse responses, at the clip's rate."""
    rng = np.random.default_rng(20_220_608)
    noise = (0.1 * rng.standard_normal(2 * RATE), 0.1 * rng.standard_normal(RATE // 4))
    rirs = tuple(np.concatenate([[1.0], 0.5 * rng.standard_normal(n) * np.exp(-np.arange(n) / (n / 6))])
                 for n in (1600, 4000))
    return {"noise_pool": noise, "rir_pool": rirs}


def output_digests() -> dict:
    """type -> (digest of spec 0, digest of spec 1), applied as apply_chain
    applies one step: a generator seeded with the spec's seed, the output
    cast to float64."""
    x, assets = frozen_clip(), frozen_assets()
    out: dict = {}
    for kind, params, seed in SPECS:
        y = PRIMITIVES[kind].apply(x.copy(), RATE, params, np.random.default_rng(seed), assets)
        y = np.ascontiguousarray(y, dtype="<f8")
        out.setdefault(kind, []).append(hashlib.sha256(y.tobytes()).hexdigest())
    return {kind: tuple(pair) for kind, pair in out.items()}


def test_specs_cover_every_type_twice():
    kinds = [kind for kind, _, _ in SPECS]
    assert sorted(set(kinds)) == sorted(PRIMITIVES)
    assert all(kinds.count(kind) == 2 for kind in PRIMITIVES)


def test_outputs_match_the_table_of_this_engine_version():
    assert ENGINE_VERSION in DIGESTS, (
        f"no digests recorded for ENGINE_VERSION {ENGINE_VERSION}; record this "
        "version's table in DIGESTS")
    build = {name: metadata.version(name) for name in ("numpy", "scipy")}
    moved = sorted(kind for kind, pair in output_digests().items()
                   if pair != DIGESTS[ENGINE_VERSION][kind])
    recorded = build in RECORDED_ON[ENGINE_VERSION]
    assert not moved, (
        f"applier output moved without an ENGINE_VERSION bump: {moved}"
        + ("" if recorded else
           f" (on the unrecorded build {build}; the table was recorded on "
           f"{RECORDED_ON[ENGINE_VERSION]}, see the module docstring)"))


# -- alignment ---------------------------------------------------------------
#
# A chain with a delay step is re-aligned against the clean clip, and the
# offset it finds is part of what a logged chain replays to. The chains
# below are the delay steps of SPECS alone and stacked, `rir_convolution`
# from each pool IR (applier seeds 1 and 0 pick IR 0 and IR 1) and from a
# synthetic IR (empty pool), each also with one step of another kind before
# or after it. ALIGNMENT pins, per ENGINE_VERSION, each chain's offset and
# the sha256 of its trimmed (clean, distorted) pair.


def spec_of(kind: str, index: int, seed: int | None = None) -> tuple:
    """The index-th SPECS entry of kind, optionally with another seed."""
    _, params, spec_seed = [s for s in SPECS if s[0] == kind][index]
    return (kind, params, spec_seed if seed is None else seed)


DELAY_BASES = [
    ((spec_of("short_delay", 0),), True),
    ((spec_of("short_delay", 1),), True),
    ((spec_of("short_delay", 0), spec_of("short_delay", 1)), True),
    ((spec_of("rir_convolution", 0, seed=1),), True),
    ((spec_of("rir_convolution", 1, seed=0),), True),
    ((spec_of("rir_convolution", 0),), False),
    ((spec_of("rir_convolution", 1), spec_of("short_delay", 1)), False),
    ((spec_of("short_delay", 0), spec_of("rir_convolution", 0, seed=0)), True),
]
MIXERS = [None, spec_of("additive_noise", 0), spec_of("low_pass", 0), spec_of("clip", 1),
          spec_of("silent_gap", 0), spec_of("griffin_lim", 1)]

# ENGINE_VERSION -> (offset, sha256 of the trimmed pair) per aligned chain, in
# `aligned_chains` order.
ALIGNMENT = {
    2: [
        (17, 'f8af568af341aaaa812b36fa01807d41d494194cee7bf80a9a6a3b9c92a2de34'),
        (17, 'c87a217ee411c7d29f98caf8c403d795c75f327b1682f032e419ede9c441364c'),
        (19, '8b9d1c60c01e6cbebd40598e933acc4d892565bb428e69a3dd87c7bee254bddd'),
        (17, 'e71c7f58575b80f653fd0f626791d0f7a95f7eda6571da315c49c1d5422f4fbd'),
        (17, 'a006e7122f8bd3c91df5c897f6e65d6491b35d8c7659acf8d9ec6e7d8ac8e9b4'),
        (0, '73fab60fad1005272b0929ba5a6313014dbd024a9e152f14425526067e7d370c'),
        (85, '156eb536e4d4008bcc1e0894acae775d6857d25ba78899d2fe691d22ccbf242b'),
        (85, '6477062296dc322949cee3458f21fa36bebac4b9af248e94d36ff0da140f8bb0'),
        (87, 'a8d469c130860189337990ea614675cbb8e302dd6ccf9284215c5f266b44590f'),
        (85, 'd4f6132995bc37dd4840ea3a17f1ee67d2b8aca8e1a5243cc87e3cad5f06b221'),
        (85, '7c440757afbdeaf15dbb7360ba12daeba7d02e846415173d6d33f83199dddce9'),
        (-16, '6379bc000ef918f348ee9a159d92744c4279d03134fbce586b2d310699848415'),
        (102, '5ffab9d823b9175b655bd0bf7035b61ddcfada1d61ec5e1d077b4cd7d7ad85e2'),
        (102, '4f77de57a8b695f5cbd9f104f91e4edd185084d613cf8cd2d026acb20e9375f9'),
        (104, 'da45d4e32b3a7fa77cfc98f293718658c68c0ed7336e3478bc7f001a9c7b3023'),
        (102, '137a74ffd35cac792cc38d6cda6c3830998656cf9330ed12d9bcade2dfe5225a'),
        (102, 'b63be75eb42d178f2c27bf0a06c34b218140e8b5a636a7217d4fe60f29199df1'),
        (85, 'a4db7e586ac6454815812045c08a7ee2e2dccd4f4d8ce09ef82060067d48bbad'),
        (106, '7499983ea0e7fadd2692549edd321d0c9c759ca3a9f19fd7e5c0ee28a13ca155'),
        (106, '0f214823e1b521cdbc195d48b3c9afb6987f4d3b7380edb5d659c33e6be1d8fa'),
        (109, '09ff7596872d530901bc6d9d60fc6562006dc8e39915122eea3e14674a3a20e3'),
        (106, '9e55990847c57e3482de8f6cb98e538a4793c0e543067a6f73b4fd97bc3c59c0'),
        (107, '57cb5c196f684cefb50d832b99fe7c3b6be65cddbf99821df711ebd7539ef8f2'),
        (-16, '3428dcd51c97e89e6adb6e56b0420393648c059ec0ccffe5c404e6914a187b77'),
        (193, '6ebde27510f9801a00711dd0c48d32242b372917a4e77e34fa98f6edd22c8747'),
        (193, '3de08afdd66c1d54cdcdfeea75534fbd9ca791c3df0fdf604d576a94d377478e'),
        (195, 'd5dfb2a9001ea4c7957535b37c50160a5745a2374406ff12eebffb33a112deea'),
        (192, '8ad1d3cd97344c7922cfbf357163d9d0ff76c5414cc7884b2f78db0b00a02329'),
        (193, '295a80ffe3320ed879b21fac48b8aa3fffb7ea6d3b7df9ce13bb67965e85d85a'),
        (173, '17544ca48f02355f92c3b71cd62d4c17574ea0b09a1c50ef0a767ba56de0e73e'),
        (126, 'ac6c576e06802271f96f311c382cd81ee3abbcb36b0e233f3712e4a9327917b4'),
        (126, '57e86e5c30cb7a921c6bdf8a6d60ba8b72e6d119593138ae69b46db655718501'),
        (128, '0128045fc46a428f33c1fbd518af3aaffcd9ce70f81fa5fae464fe78060d2b9e'),
        (126, 'd89a804fbf8727eb5a4329d26cdbdf69eeac83d6d122c50833d2c312829814df'),
        (126, '74b9885c81653fc839af951c31a6adb9f325da67952a818ec72278ea746f7ee6'),
        (-16, 'a796de2fe7c65bd01cc395d042639ddee3684f8cce63dc566f3151c578c92a10'),
        (303, '31f114588f93dd4f71d7362992f2fa693d29d60ca03e5a1b3e84e240a7f16812'),
        (303, '3417c6af05f745bb26c35480313cdf70a7b3c9a79f567d9d1e3681e306e48fa2'),
        (305, '8854a7c50bef1776430c22e6859b30f16c3a3b39c530de722f0e88309fee7bce'),
        (303, '50aabfca1d386f62199530a73ebac6e65d18fb8085d218a19978a660a70cad1f'),
        (303, '31a3cfdf4bcf3230a04c55bfc56b528f052d622e85c186a063ba5eb65ed6fc86'),
        (287, '6bca16258ecb3718bb39768d13936b73d85ef0a9063c0edb39568571c9d1acd5'),
        (210, 'e5be4435cf987c2c28e074a339bba3ad51431a7a79f20a4606bd449700920168'),
        (210, 'd1779996b77b90bd5c8f9b9944d07ee59ddf64271eecfa1bdc80d9f18b67a966'),
        (212, '4dddb032f3f9f6d70a751c9321ecff35f41bdbd71a611c18f6901a418d35ed65'),
        (210, '767ec1f33cedb1aa77b63a96a8e1a73be87990f9b781a8610cb5e4ce74a64b37'),
        (210, '02f0575d6403b54781a1e56563d539a0b9e9643b77303697e7ee7160ae38c722'),
        (-17, '058f00573c3a513d97a87a670044c4d5dc7f038a6f38fb6781d998829d2764f5'),
    ],
}
# Version 3 searches only the lags [-D, D], D the samples the delay steps
# added. Version 2 searched every lag, and with `low_pass` next to a short
# delay it put the peak two samples past D, on the filter's group delay
# (offsets 19, 87 and 104); version 3 finds D itself. The other 45 rows,
# Griffin-Lim's included, are unchanged.
ALIGNMENT[3] = list(ALIGNMENT[2])
ALIGNMENT[3][2] = (17, '138133a4da5f9c5eed6ffd1c371e40343767af9e598009015eac428201aac5d4')
ALIGNMENT[3][8] = (85, '2ccb9616de5fd267711ab7da2516ef0a554df70a0d310f0ae641fbab6a65b4df')
ALIGNMENT[3][14] = (102, 'e5140d01e41fb6e68f7c4cf360ed0a65c03bd02115635babf51e76a2cbac842f')
# Version 4 moves no offset. The pairs that moved are the eight chains with
# the `griffin_lim` mixer, whose distorted samples moved with its digests.
ALIGNMENT[4] = list(ALIGNMENT[3])
ALIGNMENT[4][5] = (0, '6b40a2b9ca32b5d222e93282f130c00e86f28de58a97ccd40004effeefee59a5')
ALIGNMENT[4][11] = (-16, '7e76e0bca98098172bf8f6715e3a7156e2c3d1670597dffaa0e8e354cf135883')
ALIGNMENT[4][17] = (85, 'a47c75d46406d90a1127993fe257a995fff6dbb21d0fb44f7bd0dcd0c6a66111')
ALIGNMENT[4][23] = (-16, '7eb6762d579b3165e4b6a6709372e8141e34c563865c1fbdc7234bfa5c9c2f13')
ALIGNMENT[4][29] = (173, 'd9f1acbb5dec7aee0235a5ee498374266da234b6751d7dd786baf34cc1d4fb68')
ALIGNMENT[4][35] = (-16, 'def5bb7e2fe7e933bcc37b30fbdb07adf09a7d0fadd3b416de755e648efa71b1')
ALIGNMENT[4][41] = (287, '2460c49b462b66a6681164028776eccc0c21a262d0c42e551990f69e7c1e80c5')
ALIGNMENT[4][47] = (-17, '902cb1fc6be412d6f638507f5762a0ad3bfd0cbdd19660d6d1ddc20a41af111a')


def aligned_chains() -> list:
    """(steps, uses the rir pool) for every base and mixer; the mixer goes
    after the delay steps on even positions and before them on odd ones."""
    chains = []
    for b, (steps, pool) in enumerate(DELAY_BASES):
        for m, mixer in enumerate(MIXERS):
            if mixer is None:
                chains.append((steps, pool))
            elif (b + m) % 2 == 0:
                chains.append((steps + (mixer,), pool))
            else:
                chains.append(((mixer,) + steps, pool))
    return chains


def alignment_table() -> list:
    """(offset, sha256 of the trimmed clean then distorted float64 samples)
    per aligned chain, applied through `apply_chain`."""
    x, assets = Signal(samples=frozen_clip(), sample_rate=RATE), frozen_assets()
    configs = {pool: ChainConfig(noise_pool=assets["noise_pool"],
                                 rir_pool=assets["rir_pool"] if pool else ())
               for pool in (True, False)}
    table = []
    for steps, pool in aligned_chains():
        chain = [DistortionSpec(kind=kind, params=params, seed=seed)
                 for kind, params, seed in steps]
        pair = apply_chain(x, chain, configs[pool])
        both = np.concatenate([pair.clean.samples, pair.distorted.samples]).astype("<f8")
        table.append((pair.offset, hashlib.sha256(both.tobytes()).hexdigest()))
    return table


def test_alignment_matches_the_table_of_this_engine_version():
    assert ENGINE_VERSION in ALIGNMENT, (
        f"no alignment table recorded for ENGINE_VERSION {ENGINE_VERSION}")
    got = alignment_table()
    assert len(got) >= 40
    moved = [i for i, (row, want) in enumerate(zip(got, ALIGNMENT[ENGINE_VERSION]))
             if row != want]
    assert not moved, f"aligned chains moved: {[(i, got[i]) for i in moved]}"


# -- long inputs -------------------------------------------------------------
#
# The frozen clip is shorter than 13 times any room response, and on such
# inputs overlap-add and one whole FFT give the same bits, so the table
# above cannot see how `rir_convolution` convolves a long input. LONG_RIR
# pins, per ENGINE_VERSION, the output on the clip tiled to 6 s, over 13
# times longer than the synthetic response of spec 0 (5,521 taps) and pool
# IR 0 (1,601 taps, picked by applier seed 1).

LONG_RIR = {4: ('b9a1dcab6a47c0cde282c63df8ac950e80e2b37d56e9c6207d9fb8beee14ceac',
                '0dd7db33ce45baade4e9cc9009cb9806e1e50c75c72b6df53b6de31795c951a6')}


def long_rir_digests() -> tuple:
    """(digest with the synthetic response, digest with pool IR 0)."""
    x, assets = np.tile(frozen_clip(), 6), frozen_assets()
    out = []
    for pool, seed in (((), None), (assets["rir_pool"], 1)):
        kind, params, seed = spec_of("rir_convolution", 0, seed)
        y = PRIMITIVES[kind].apply(x.copy(), RATE, params, np.random.default_rng(seed),
                                   {"rir_pool": pool})
        out.append(hashlib.sha256(np.ascontiguousarray(y, dtype="<f8").tobytes()).hexdigest())
    return tuple(out)


def test_long_input_rir_convolution_matches_the_table_of_this_engine_version():
    assert ENGINE_VERSION in LONG_RIR, (
        f"no long-input digests recorded for ENGINE_VERSION {ENGINE_VERSION}")
    assert long_rir_digests() == LONG_RIR[ENGINE_VERSION]
