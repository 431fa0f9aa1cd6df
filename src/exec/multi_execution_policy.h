#ifndef ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_
#define ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_

// MultiExecutionPolicy, MultiEngineFactory and MakeMultiPolicy are declared
// with their single-query counterparts; this header only forwards there.
#include "exec/execution_policy.h"

#endif  // ASEQ_EXEC_MULTI_EXECUTION_POLICY_H_
