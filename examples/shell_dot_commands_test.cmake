# Drives conquer_shell's dot-commands through stdin, each typed with the
# ';' that ends statements: `.save <dir>;` must save into <dir> (not into a
# new directory named "<dir>;") and `.memory_budget 64m;` must set the
# budget (not print its usage line).
#
# Usage: cmake -DSHELL=<conquer_shell> -DWORK_DIR=<work dir, wiped first> \
#          -P shell_dot_commands_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/input.txt"
     ".save ${WORK_DIR}/db;\n.memory_budget 64m;\n.quit\n")
execute_process(COMMAND "${SHELL}"
                INPUT_FILE "${WORK_DIR}/input.txt"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "conquer_shell exited with ${rc}:\n${out}\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/db/manifest.txt")
  message(FATAL_ERROR "'.save <dir>;' did not save into <dir>:\n${out}")
endif()
if(EXISTS "${WORK_DIR}/db;")
  message(FATAL_ERROR "'.save <dir>;' created a directory named '<dir>;'")
endif()
if(NOT out MATCHES "memory budget: 64\\.0 MB")
  message(FATAL_ERROR "'.memory_budget 64m;' did not set the budget:\n${out}")
endif()
