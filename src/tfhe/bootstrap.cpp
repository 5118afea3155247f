#include "tfhe/bootstrap.h"

#include "fft/double_fft.h"
#include "fft/lift_fft.h"
#include "fft/simd_fft.h"

namespace matcha {

template struct BootstrapWorkspace<DoubleFftEngine>;
template struct BootstrapWorkspace<LiftFftEngine>;
template struct BootstrapWorkspace<SimdFftEngine>;

template LweSample bootstrap<DoubleFftEngine>(const DoubleFftEngine&,
                                              const DeviceBootstrapKey<DoubleFftEngine>&,
                                              const KeySwitchKey&, Torus32,
                                              const LweSample&,
                                              BootstrapWorkspace<DoubleFftEngine>&,
                                              BlindRotateMode);
template LweSample bootstrap<LiftFftEngine>(const LiftFftEngine&,
                                            const DeviceBootstrapKey<LiftFftEngine>&,
                                            const KeySwitchKey&, Torus32,
                                            const LweSample&,
                                            BootstrapWorkspace<LiftFftEngine>&,
                                            BlindRotateMode);
template LweSample bootstrap<SimdFftEngine>(const SimdFftEngine&,
                                            const DeviceBootstrapKey<SimdFftEngine>&,
                                            const KeySwitchKey&, Torus32,
                                            const LweSample&,
                                            BootstrapWorkspace<SimdFftEngine>&,
                                            BlindRotateMode);

template void blind_rotate_batch<DoubleFftEngine>(
    const DoubleFftEngine&, const DeviceBootstrapKey<DoubleFftEngine>&,
    const LweSample* const*, int, const TorusPolynomial* const*,
    BootstrapWorkspace<DoubleFftEngine>&, BlindRotateMode);
template void blind_rotate_batch<LiftFftEngine>(
    const LiftFftEngine&, const DeviceBootstrapKey<LiftFftEngine>&,
    const LweSample* const*, int, const TorusPolynomial* const*,
    BootstrapWorkspace<LiftFftEngine>&, BlindRotateMode);
template void blind_rotate_batch<SimdFftEngine>(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&,
    const LweSample* const*, int, const TorusPolynomial* const*,
    BootstrapWorkspace<SimdFftEngine>&, BlindRotateMode);

template void bootstrap_wo_keyswitch_batch<DoubleFftEngine>(
    const DoubleFftEngine&, const DeviceBootstrapKey<DoubleFftEngine>&,
    Torus32, const LweSample* const*, LweSample* const*, int,
    BootstrapWorkspace<DoubleFftEngine>&, BlindRotateMode);
template void bootstrap_wo_keyswitch_batch<LiftFftEngine>(
    const LiftFftEngine&, const DeviceBootstrapKey<LiftFftEngine>&, Torus32,
    const LweSample* const*, LweSample* const*, int,
    BootstrapWorkspace<LiftFftEngine>&, BlindRotateMode);
template void bootstrap_wo_keyswitch_batch<SimdFftEngine>(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&, Torus32,
    const LweSample* const*, LweSample* const*, int,
    BootstrapWorkspace<SimdFftEngine>&, BlindRotateMode);

template void bootstrap_batch<DoubleFftEngine>(
    const DoubleFftEngine&, const DeviceBootstrapKey<DoubleFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<DoubleFftEngine>&, KeySwitchWorkspace&,
    BlindRotateMode);
template void bootstrap_batch<LiftFftEngine>(
    const LiftFftEngine&, const DeviceBootstrapKey<LiftFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<LiftFftEngine>&, KeySwitchWorkspace&,
    BlindRotateMode);
template void bootstrap_batch<SimdFftEngine>(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<SimdFftEngine>&, KeySwitchWorkspace&,
    BlindRotateMode);

} // namespace matcha
