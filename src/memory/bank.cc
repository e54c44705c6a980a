#include "memory/bank.hh"

#include <algorithm>

namespace prime::memory {

void
BankModel::precharge()
{
    if (openRow_ >= 0) {
        nextFree_ = std::max(nextFree_, nextFree_ + timing_.tRp);
        openRow_ = -1;
    }
}

} // namespace prime::memory
