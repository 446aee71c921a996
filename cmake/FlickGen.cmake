# flick_generate(<outvar> IDL <idl-file-rel-to-repo/idl> BASE <basename>
#                [ARGS <extra flickc args...>] [COMMON])
#
# Runs flickc at build time and sets <outvar> to the generated sources
# (header + client + server [+ common xdr file when COMMON is given, i.e.
# for the non-inlining naive back end]), which compile with -Wall -Wextra
# -Werror.  Consumers must add
# ${CMAKE_CURRENT_BINARY_DIR}/gen to their include path.
function(flick_generate OUTVAR)
  cmake_parse_arguments(FG "COMMON" "IDL;BASE" "ARGS" ${ARGN})
  set(gen_dir ${CMAKE_CURRENT_BINARY_DIR}/gen)
  file(MAKE_DIRECTORY ${gen_dir})
  set(idl ${CMAKE_SOURCE_DIR}/idl/${FG_IDL})
  set(outs
    ${gen_dir}/${FG_BASE}.h
    ${gen_dir}/${FG_BASE}_client.cc
    ${gen_dir}/${FG_BASE}_server.cc)
  if(FG_COMMON)
    list(APPEND outs ${gen_dir}/${FG_BASE}_xdr.cc)
  endif()
  add_custom_command(
    OUTPUT ${outs}
    COMMAND flickc ${FG_ARGS} -o ${gen_dir}/${FG_BASE} ${idl}
    DEPENDS flickc ${idl}
    COMMENT "flickc ${FG_IDL} -> ${FG_BASE}"
    VERBATIM)
  # Generated stubs must compile warning-free: the build itself is the
  # check.  -Wunused-parameter overrides the project-wide -Wno- for them.
  set_source_files_properties(${outs} PROPERTIES
    COMPILE_OPTIONS "-Wall;-Wextra;-Wunused-parameter;-Werror")
  set(${OUTVAR} ${outs} PARENT_SCOPE)
endfunction()
