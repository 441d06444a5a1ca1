// Names the calling thread, so per-thread tools (`top -H`, `ps -L`,
// /proc/<pid>/task/<tid>/comm) tell CrowdWeb's long-lived threads
// apart.
#pragma once

#include <pthread.h>

namespace crowdweb::util {

/// Linux keeps at most 15 characters; a longer name is refused and the
/// thread keeps its old one.
inline void name_this_thread(const char* name) noexcept {
  ::pthread_setname_np(::pthread_self(), name);
}

}  // namespace crowdweb::util
