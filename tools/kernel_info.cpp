// kernel_info: print the SIMD kernel backends this binary can run on this
// host, one name per line (the GDSM_KERNEL vocabulary), preferred (the auto
// pick) last.  With --active, print only the backend the dispatch would pick
// (honouring GDSM_KERNEL).  tools/ci.sh uses the list to run tier-1 once per
// backend.
#include <cstring>
#include <iostream>

#include "simd/dispatch.h"

int main(int argc, char** argv) {
  bool active_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--active") == 0) {
      active_only = true;
    } else {
      std::cerr << "usage: kernel_info [--active]\n";
      return 2;
    }
  }
  if (active_only) {
    std::cout << gdsm::simd::active_backend_name() << "\n";
    return 0;
  }
  for (const gdsm::simd::Backend b : gdsm::simd::available_backends()) {
    std::cout << gdsm::simd::backend_name(b) << "\n";
  }
  return 0;
}
