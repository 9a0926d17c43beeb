"""Build shim: compile the optional native kernel extension.

All project metadata lives in ``pyproject.toml``; this file exists
only to declare ``repro.kernels._native`` as an *optional* C
extension.  ``optional=True`` makes setuptools tolerate a missing or
failing compiler: ``pip install .`` then produces a pure-Python wheel
and the package runs on the ``pure`` kernel backend.  A
successful build ships the compiled extension in the wheel and
``REPRO_BACKEND=auto`` resolves to ``native``.

From an installed source checkout the extension can also be built in
place with ``python -m repro.kernels.build``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.kernels._native",
            sources=["src/repro/kernels/_native.c"],
            extra_compile_args=["-O2", "-fno-strict-aliasing"],
            optional=True,
        )
    ]
)
