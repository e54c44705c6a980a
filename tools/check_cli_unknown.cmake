# Smoke checks for bad prime_cli command lines: each must fail with a
# non-zero exit code and a diagnostic, instead of aborting or silently
# running something else.  Driven by ctest:
#   cmake -DPRIME_CLI=<path> -DCASE=<benchmark|option> \
#         -P check_cli_unknown.cmake
#   benchmark: `run <unknown>` names the valid benchmarks.
#   option:    an unknown option, or an option missing its value, is
#              named and followed by the usage text (exit code 2).
#   config:    a datapath width the simulator cannot run is a config
#              error naming the key (exit code 1), not an abort.
if(NOT DEFINED PRIME_CLI)
    message(FATAL_ERROR "pass -DPRIME_CLI=<path to prime_cli>")
endif()
if(NOT DEFINED CASE)
    set(CASE benchmark)
endif()

# Run prime_cli with ARGN; fail unless it exits non-zero (exactly
# `expect_rc`, when set) and its output matches every regex in the list
# variable named by `patterns`.
function(expect_failure patterns)
    execute_process(
        COMMAND ${PRIME_CLI} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "prime_cli ${ARGN} exited 0; expected failure")
    endif()
    if(DEFINED expect_rc AND NOT rc EQUAL expect_rc)
        message(FATAL_ERROR
            "prime_cli ${ARGN} exited '${rc}'; expected ${expect_rc}")
    endif()
    set(all "${out}${err}")
    foreach(pattern IN LISTS ${patterns})
        if(NOT all MATCHES "${pattern}")
            message(FATAL_ERROR
                "prime_cli ${ARGN}: output lacks '${pattern}': ${all}")
        endif()
    endforeach()
endfunction()

if(CASE STREQUAL "benchmark")
    set(want "valid names" "MLP-S")
    expect_failure(want run no-such-benchmark)
elseif(CASE STREQUAL "option")
    set(expect_rc 2)  # a usage error, not an abort
    set(want "unknown option '--no-pipeline'" "usage:")
    expect_failure(want run MLP-S --no-pipeline)
    set(want "unknown option '--batch-window'" "usage:")
    expect_failure(want serve MLP-S --batch-window 50)
    set(want "unknown option '--batch-window-us'" "usage:")
    expect_failure(want serve MLP-S --batch-window-us 5)
    set(want "option '--images' needs a value" "usage:")
    expect_failure(want run MLP-S --images)
elseif(CASE STREQUAL "config")
    set(expect_rc 1)  # a fatal config error, not an abort (134)
    set(want "fatal:.*datapath.input_bits=7")
    expect_failure(want run MLP-S --set datapath.input_bits=7)
    set(want "fatal:.*datapath.weight_bits=9")
    expect_failure(want run MLP-S --set datapath.weight_bits=9)
else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
