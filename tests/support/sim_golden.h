#pragma once

/// \file sim_golden.h
/// Bit-exact golden results for the legacy 64-GPU-and-below failure
/// scenarios, generated from the pre-rewrite scalar engine (the code now
/// frozen as run_with_failures_reference in sim_reference.h) before the
/// discrete-event rewrite landed.  Every double is stored as raw IEEE-754
/// bits: the engine's legacy path must reproduce these exactly — not
/// approximately — on every platform the CI matrix covers.
///
/// Grid: {A100 x 8, V100S x 64} clusters x 7 strategies x
/// MTBF {1800 s, 7200 s} x seeds {1, 7}; GPT2-S; rho = 0.01 (LowDiff+
/// runs the dense rho = 0 regime); 4 h of productive work;
/// software_fraction = 0.5.  56 cells.
///
/// Regenerating (only when the accounting model itself changes, with a
/// DESIGN.md §11 note): build run_with_failures_reference over this grid
/// and dump each result's doubles via memcpy to uint64.

#include <cstdint>

#include "sim/strategy_model.h"

namespace lowdiff::sim::golden {

struct GoldenRow {
  const char* cluster;  ///< "a100x8" or "v100x64"
  StrategyKind kind;
  std::uint64_t ckpt_interval;
  std::uint64_t full_interval;
  std::uint64_t batch_size;
  double mtbf_sec;
  std::uint64_t seed;
  std::uint64_t wall_bits;
  std::uint64_t wasted_bits;
  std::uint64_t ratio_bits;
  std::uint64_t failures;
  std::uint64_t overhead_bits;
  std::uint64_t recovery_bits;
  std::uint64_t redo_bits;
};

inline constexpr double kGoldenTrainWorkSec = 4 * 3600.0;
inline constexpr double kGoldenSoftwareFraction = 0.5;

inline constexpr GoldenRow kRows[] = {
    // clang-format off
    {"a100x8", StrategyKind::kTorchSave, 25, 25, 2, 1800.0, 1,
     0x40d648c394036180ull, 0x40c071872806c300ull, 0x3fe43192f7079117ull, 6, 0x40c03c67d2bf68cfull, 0x4057287ae147ae15ull, 0x402b397e132b55efull},
    {"a100x8", StrategyKind::kTorchSave, 25, 25, 2, 1800.0, 7,
     0x40d681cfcbc74438ull, 0x40c0e39f978e8870ull, 0x3fe3fe63ddd39459ull, 18, 0x40c0444197b879dbull, 0x40715e5c28f5c290ull, 0x40446b1e8e608073ull},
    {"a100x8", StrategyKind::kTorchSave, 25, 25, 2, 7200.0, 1,
     0x40d635bf816cc099ull, 0x40c04b7f02d98132ull, 0x3fe442dd186522e3ull, 2, 0x40c039c9e66c6320ull, 0x403ee0a3d70a3d71ull, 0x401226540cc78e9full},
    {"a100x8", StrategyKind::kTorchSave, 25, 25, 2, 7200.0, 7,
     0x40d65706a1f45a2eull, 0x40c08e0d43e8b45cull, 0x3fe424aeaeeaa5b1ull, 9, 0x40c03e5e43fdad11ull, 0x40615e5c28f5c290ull, 0x40346b1e8e608073ull},
    {"a100x8", StrategyKind::kCheckFreq, 10, 10, 2, 1800.0, 1,
     0x40d43aba1797b2faull, 0x40b8aae85e5ecbe8ull, 0x3fe63eae71bbd4a6ull, 6, 0x40b848d48cd5d7b9ull, 0x4057287ae147ae15ull, 0x4015c7980f55de5aull},
    {"a100x8", StrategyKind::kCheckFreq, 10, 10, 2, 1800.0, 7,
     0x40d468c18dc7f0afull, 0x40b96306371fc2bcull, 0x3fe60c832759e7e1ull, 17, 0x40b84d2365710ee1ull, 0x407067570a3d70a4ull, 0x402edac215b9a5acull},
    {"a100x8", StrategyKind::kCheckFreq, 10, 10, 2, 7200.0, 1,
     0x40d425cdf924ae34ull, 0x40b85737e492b8d0ull, 0x3fe655c81527795dull, 1, 0x40b846df41a6901bull, 0x402ee0a3d70a3d71ull, 0x3fed0a2014727dccull},
    {"a100x8", StrategyKind::kCheckFreq, 10, 10, 2, 7200.0, 7,
     0x40d4368ade4d7ed3ull, 0x40b89a2b7935fb4cull, 0x3fe6434958a24191ull, 5, 0x40b848704a992fccull, 0x40534c6666666667ull, 0x401226540cc78ea0ull},
    {"a100x8", StrategyKind::kGemini, 1, 1, 2, 1800.0, 1,
     0x40e17aae3820ca3full, 0x40d4e55c7041947eull, 0x3fd9beaeca91550bull, 12, 0x40d4b2b28e2fbc10ull, 0x4069321815a07b37ull, 0x3ff16c79a5de4b79ull},
    {"a100x8", StrategyKind::kGemini, 1, 1, 2, 1800.0, 7,
     0x40e19a98812c32a6ull, 0x40d525310258654cull, 0x3fd9900222cff61cull, 27, 0x40d4b332c5b03e56ull, 0x407c585b18548a9eull, 0x40039a08da9a14e8ull},
    {"a100x8", StrategyKind::kGemini, 1, 1, 2, 7200.0, 1,
     0x40e165675cc3d9faull, 0x40d4baceb987b3f4ull, 0x3fd9de2bb49e762bull, 2, 0x40d4b25d13da0fe2ull, 0x4040cc100e6afcceull, 0x3fc73b4cdd2864a3ull},
    {"a100x8", StrategyKind::kGemini, 1, 1, 2, 7200.0, 7,
     0x40e1744c2984e890ull, 0x40d4d8985309d120ull, 0x3fd9c8190144d06cull, 9, 0x40d4b298e97c6eceull, 0x4062e59210385c69ull, 0x3fea22b678cd7136ull},
    {"a100x8", StrategyKind::kNaiveDC, 1, 20, 2, 1800.0, 1,
     0x41023ab1c1a65e1eull, 0x410078b1c1a65e1eull, 0x3fb8af815edf4cceull, 73, 0x41004c86c98a07a5ull, 0x4095fafc6a7ef9ddull, 0x401a7fa3ac4212d5ull},
    {"a100x8", StrategyKind::kNaiveDC, 1, 20, 2, 1800.0, 7,
     0x4102442a088ed881ull, 0x4100822a088ed881ull, 0x3fb8a2b521b1ce28ull, 88, 0x41004cebb6e3eb00ull, 0x409a7f374bc6a7f7ull, 0x401ff189b0178a72ull},
    {"a100x8", StrategyKind::kNaiveDC, 1, 20, 2, 7200.0, 1,
     0x4102157244583870ull, 0x4100537244583870ull, 0x3fb8e259f4582768ull, 14, 0x41004af9ce9fefbeull, 0x4070dc978d4fdf3bull, 0x3ff453e34183580dull},
    {"a100x8", StrategyKind::kNaiveDC, 1, 20, 2, 7200.0, 7,
     0x41021e48ececeeedull, 0x41005c48ececeeedull, 0x3fb8d6365afa2134ull, 28, 0x41004b58017c5d8aull, 0x4080dc978d4fdf38ull, 0x400453e34183580dull},
    {"a100x8", StrategyKind::kLowDiff, 1, 20, 2, 1800.0, 1,
     0x40cce69e5bc64ccdull, 0x4078d3cb78c999a0ull, 0x3fef2415327c700eull, 4, 0x4074dd17adc0f244ull, 0x404f2a3a8b164918ull, 0x3ff16c79a5de4b7aull},
    {"a100x8", StrategyKind::kLowDiff, 1, 20, 2, 1800.0, 7,
     0x40cd2dfe452516daull, 0x4080dfe452516da0ull, 0x3feed7e92761d33bull, 13, 0x4074de0050c6ba90ull, 0x4069524f91021b66ull, 0x400c5045ad893aa4ull},
    {"a100x8", StrategyKind::kLowDiff, 1, 20, 2, 7200.0, 1,
     0x40ccc6e58246d691ull, 0x4074dcb048dad220ull, 0x3fef46692b7ed373ull, 0, 0x4074dcb048dad223ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"a100x8", StrategyKind::kLowDiff, 1, 20, 2, 7200.0, 7,
     0x40ccdeb025666f40ull, 0x4077d604accde800ull, 0x3fef2ca31e347558ull, 3, 0x4074dcfdd4876a3cull, 0x40475fabe850b6d2ull, 0x3fea22b678cd7137ull},
    {"a100x8", StrategyKind::kLowDiffPlus, 1, 100, 2, 1800.0, 1,
     0x40ce676b6554241dull, 0x40923b5b2aa120e8ull, 0x3fed99f4630d1305ull, 4, 0x4091484ca892be3full, 0x404e1cc100e6afcdull, 0x3fe143d03968d75aull},
    {"a100x8", StrategyKind::kLowDiffPlus, 1, 100, 2, 1800.0, 7,
     0x40ceae84a3818657ull, 0x409474251c0c32b8ull, 0x3fed555c060257f9ull, 13, 0x40914955dfde84e8ull, 0x4068d94e3bcd35a9ull, 0x400f4ae9680e0655ull},
    {"a100x8", StrategyKind::kLowDiffPlus, 1, 100, 2, 7200.0, 1,
     0x40ce4904472a6d68ull, 0x4091482239536b40ull, 0x3fedb7abc353398eull, 0, 0x4091482239536b41ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"a100x8", StrategyKind::kLowDiffPlus, 1, 100, 2, 7200.0, 7,
     0x40ce607dec5d983aull, 0x409203ef62ecc1d0ull, 0x3feda0b494f74d3eull, 3, 0x4091486c7c023c7bull, 0x4046f7822bbecaacull, 0x3fee36ac647778deull},
    {"a100x8", StrategyKind::kPCcheck, 10, 10, 2, 1800.0, 1,
     0x40cd1f0250722825ull, 0x407fe04a0e4504a0ull, 0x3feee7c7f97bb51eull, 4, 0x407bdafa69c2030eull, 0x404e59db22d0e560ull, 0x400d0a2014727dccull},
    {"a100x8", StrategyKind::kPCcheck, 10, 10, 2, 1800.0, 7,
     0x40cd6782432461c8ull, 0x4084782432461c80ull, 0x3fee9b948ef6eadcull, 13, 0x407bdf058de273c6ull, 0x4068a9020c49ba5eull, 0x4027983a109d0638ull},
    {"a100x8", StrategyKind::kPCcheck, 10, 10, 2, 7200.0, 1,
     0x40ccfec972cd9cc1ull, 0x407bd92e59b39820ull, 0x3fef0a204129e2bdull, 0, 0x407bd92e59b39811ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"a100x8", StrategyKind::kPCcheck, 10, 10, 2, 7200.0, 7,
     0x40cd16f41909054cull, 0x407ede832120a980ull, 0x3feef056e9544d90ull, 3, 0x407bda8765be684eull, 0x4046c3645a1cac08ull, 0x4005c7980f55de59ull},
    {"v100x64", StrategyKind::kTorchSave, 25, 25, 2, 1800.0, 1,
     0x40d2496878e7070bull, 0x40b0e5a1e39c1c2cull, 0x3fe89ba49f5ca455ull, 6, 0x40b06d70c6873870ull, 0x4057287ae147ae15ull, 0x403b8f318fc50482ull},
    {"v100x64", StrategyKind::kTorchSave, 25, 25, 2, 1800.0, 7,
     0x40d2797e1348cf6cull, 0x40b1a5f84d233db0ull, 0x3fe85b985677d550ull, 15, 0x40b0797d846f0451ull, 0x406cf2999999999aull, 0x4051397ef9db22d3ull},
    {"v100x64", StrategyKind::kTorchSave, 25, 25, 2, 7200.0, 1,
     0x40d2295a11fb2c22ull, 0x40b0656847ecb088ull, 0x3fe8c713e4c4cb01ull, 0, 0x40b0656847ecb087ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kTorchSave, 25, 25, 2, 7200.0, 7,
     0x40d23eb901431369ull, 0x40b0bae4050c4da4ull, 0x3fe8aa0e16675a46ull, 4, 0x40b06ac346fe6078ull, 0x404ee0a3d70a3d71ull, 0x40325f765fd8adacull},
    {"v100x64", StrategyKind::kCheckFreq, 10, 10, 2, 1800.0, 1,
     0x40cd27eb7609dbe0ull, 0x40807eb7609dbe00ull, 0x3feede55f36cf722ull, 4, 0x407cabc41d8e6356ull, 0x404ee0a3d70a3d71ull, 0x401d658a32f44913ull},
    {"v100x64", StrategyKind::kCheckFreq, 10, 10, 2, 1800.0, 7,
     0x40cd75ecd9e62448ull, 0x40855ecd9e624480ull, 0x3fee8c9a457ee151ull, 13, 0x407cb430a8d1f8d4ull, 0x406916851eb851ecull, 0x4037e28049667b5eull},
    {"v100x64", StrategyKind::kCheckFreq, 10, 10, 2, 7200.0, 1,
     0x40cd05402d362d79ull, 0x407ca805a6c5af20ull, 0x3fef033666e7d3d5ull, 0, 0x407ca805a6c5af1dull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kCheckFreq, 10, 10, 2, 7200.0, 7,
     0x40cd1f40a3d4f046ull, 0x407fe8147a9e08c0ull, 0x3feee785d50e4fecull, 3, 0x407caad47fdc3647ull, 0x4047287ae147ae15ull, 0x40160c27a63736ceull},
    {"v100x64", StrategyKind::kGemini, 1, 1, 2, 1800.0, 1,
     0x40d14930d0edda7cull, 0x40a9c986876ed3e0ull, 0x3fea086409d94a29ull, 6, 0x40a8fdc15c64641aull, 0x4059321815a07b36ull, 0x3ff1a352eb5f5f0bull},
    {"v100x64", StrategyKind::kGemini, 1, 1, 2, 1800.0, 7,
     0x40d16f7d4adbdfd2ull, 0x40aafbea56defe90ull, 0x3fe9cf35130b80b5ull, 15, 0x40a8fe7d6b44e727ull, 0x406f7e9e1b089a05ull, 0x40060c27a63736ceull},
    {"v100x64", StrategyKind::kGemini, 1, 1, 2, 7200.0, 1,
     0x40d12fa87fa48197ull, 0x40a8fd43fd240cb8ull, 0x3fea2f10f0276eafull, 0, 0x40a8fd43fd240cbaull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kGemini, 1, 1, 2, 7200.0, 7,
     0x40d140ae0b2abcdaull, 0x40a985705955e6d0ull, 0x3fea153b9e814630ull, 4, 0x40a8fd9791f99c4eull, 0x4050cc100e6afcceull, 0x3fe7846e8f29d40full},
    {"v100x64", StrategyKind::kNaiveDC, 1, 20, 2, 1800.0, 1,
     0x40f269ba94e573a7ull, 0x40edcb7529cae74eull, 0x3fc87072b95163d1ull, 40, 0x40ed6a2fc008abd8ull, 0x4088168f5c28f5bcull, 0x401d658a32f4490aull},
    {"v100x64", StrategyKind::kNaiveDC, 1, 20, 2, 1800.0, 7,
     0x40f27b6c69642916ull, 0x40edeed8d2c8522cull, 0x3fc8590cd8b09934ull, 54, 0x40ed6b87ea6881e8ull, 0x4090426d916872abull, 0x4023d7bd48cb4ae5ull},
    {"v100x64", StrategyKind::kNaiveDC, 1, 20, 2, 7200.0, 1,
     0x40f23ec190d64d4full, 0x40ed758321ac9a9eull, 0x3fc8aa0283c5e008ull, 6, 0x40ed66ebeb6911b3ull, 0x405ce7df3b645a1cull, 0x3ff1a352eb5f5f0bull},
    {"v100x64", StrategyKind::kNaiveDC, 1, 20, 2, 7200.0, 7,
     0x40f24a219970e683ull, 0x40ed8c4332e1cd06ull, 0x3fc89aab8a5ddf10ull, 15, 0x40ed67c92b38f6bdull, 0x407210eb851eb852ull, 0x40060c27a63736ceull},
    {"v100x64", StrategyKind::kLowDiff, 1, 20, 2, 1800.0, 1,
     0x40cc9177a122347full, 0x406c5de8488d1fc0ull, 0x3fef80e703affd99ull, 4, 0x40643af22de92ff2ull, 0x404f71a33bd9cae2ull, 0x4001a352eb5f5f0bull},
    {"v100x64", StrategyKind::kLowDiff, 1, 20, 2, 1800.0, 7,
     0x40ccdab96ab6bf2full, 0x4077572d56d7e5e0ull, 0x3fef30eb6f2abd5dull, 13, 0x40643cbad71b0087ull, 0x40698c54a0a0f4d7ull, 0x401ca966be7afa70ull},
    {"v100x64", StrategyKind::kLowDiff, 1, 20, 2, 7200.0, 1,
     0x40cc70e89ce02fbfull, 0x40643a27380befc0ull, 0x3fefa4f7876f688cull, 0, 0x40643a27380befb0ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kLowDiff, 1, 20, 2, 7200.0, 7,
     0x40cc8953e011b34full, 0x406a54f8046cd3c0ull, 0x3fef89e36d877498ull, 3, 0x40643abf7071dfe2ull, 0x4047953a6ce3582aull, 0x3ffa74fc610f0e90ull},
    {"v100x64", StrategyKind::kLowDiffPlus, 1, 100, 2, 1800.0, 1,
     0x40ce5c9c43f0f642ull, 0x4091e4e21f87b210ull, 0x3feda47e37c50c4cull, 4, 0x4090eea7049410b5ull, 0x404e3be76c8b4396ull, 0x3ff16f7e3d1cc101ull},
    {"v100x64", StrategyKind::kLowDiffPlus, 1, 100, 2, 1800.0, 7,
     0x40cea469efe42eb2ull, 0x4094234f7f217590ull, 0x3fed5f083d9bbe09ull, 13, 0x4090f00be1c32b54ull, 0x4068e30a3d70a3d7ull, 0x4016e255b035bd51ull},
    {"v100x64", StrategyKind::kLowDiffPlus, 1, 100, 2, 7200.0, 1,
     0x40ce3dca6198a6f4ull, 0x4090ee530cc537a0ull, 0x3fedc2b3df3ec1e9ull, 0, 0x4090ee530cc5379eull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kLowDiffPlus, 1, 100, 2, 7200.0, 7,
     0x40ce5585270603eeull, 0x4091ac2938301f70ull, 0x3fedab6bf3d689f3ull, 3, 0x4090eebc0287c6faull, 0x4046ff4bc6a7ef9eull, 0x3ff5cb5dcc63f141ull},
    {"v100x64", StrategyKind::kPCcheck, 10, 10, 2, 1800.0, 1,
     0x40cd2764ad55a288ull, 0x4080764ad55a2880ull, 0x3feedee4a971f9f3ull, 4, 0x407cabc41d8e6356ull, 0x404e59db22d0e560ull, 0x401d658a32f44913ull},
    {"v100x64", StrategyKind::kPCcheck, 10, 10, 2, 1800.0, 7,
     0x40cd7436cd9c69eaull, 0x4085436cd9c69ea0ull, 0x3fee8e609bce08eaull, 13, 0x407cb430a8d1f8d4ull, 0x4068a9020c49ba5eull, 0x4037e28049667b5eull},
    {"v100x64", StrategyKind::kPCcheck, 10, 10, 2, 7200.0, 1,
     0x40cd05402d362d79ull, 0x407ca805a6c5af20ull, 0x3fef033666e7d3d5ull, 0, 0x407ca805a6c5af1dull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"v100x64", StrategyKind::kPCcheck, 10, 10, 2, 7200.0, 7,
     0x40cd1edb8d4dc544ull, 0x407fdb71a9b8a880ull, 0x3feee7f11cd5ca26ull, 3, 0x407caad47fdc3647ull, 0x4046c3645a1cac08ull, 0x40160c27a63736ceull},
    // clang-format on
    // clang-format on
};

inline constexpr std::size_t kNumRows = sizeof(kRows) / sizeof(kRows[0]);

}  // namespace lowdiff::sim::golden
