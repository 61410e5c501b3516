// Short names for the program's namespaces inside the benchmark.
#pragma once

#include "util/time.hpp"

namespace ccp {
namespace agent {}
namespace datapath {}
namespace ipc {}
namespace lang {}
}  // namespace ccp

namespace loopbench {

namespace agent = ccp::agent;
namespace datapath = ccp::datapath;
namespace ipc = ccp::ipc;
namespace lang = ccp::lang;
using ccp::Duration;
using ccp::TimePoint;

}  // namespace loopbench
