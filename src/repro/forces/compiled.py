"""Build, cache, load and self-check the compiled tiles (:data:`SOURCES`).

Each C source ships inside the package of the module that owns its
numpy twin and is built on first use with the system C compiler into a
per-user cache, then loaded with :mod:`ctypes`.  Every tile takes one
path, :func:`resolve`: load the library (:func:`load_library`), bind it
with the owner's binder and run the owner's self-check against the
owner's numpy reference; on any failure the reference serves.
:data:`TIERS` records which tier serves each tile, and why.  The
per-tile parts stay with the owner, beside the numpy twin they must
match (the owner imports this module, so a table of them here would be
an import cycle): its entry points' argument types (:func:`entry_point`),
a binder that validates arrays before pointing into them, a self-check.
Arrays that live longer than a call - a particle system's state, a
machine's j-memory, a simulated network's clock, round log and
schedules - are bound once: validated, addressed into a
``ctypes.Structure`` and held, so that the pointers cannot outlive them
(:mod:`repro.core.hermite_tile`, :func:`repro.hardware.pipeline.bind_j_set`,
:mod:`repro.parallel.network_tile`); a call then validates and
addresses (:func:`address`) only what is new in it.

Cache.  ``$XDG_CACHE_HOME/repro-grape6`` (default ``~/.cache``).  The
directory must belong to the user and be writable by nobody else, or it
is refused: a shared library is code, and loading one another user
could have written is running their code.  A user without a usable
cache directory gets the numpy tier.  The file name
(:func:`library_path`) carries a hash of source, flags, compiler
(resolved path, size, mtime: its version without running it) and CPU,
so a compiler upgrade or a home directory shared between machines
rebuilds instead of loading a stale or foreign build; once built, an
import starts no process.  A build goes to a temporary name in the same
directory and is renamed into place, so concurrent first imports each
build their own copy and the last rename wins; no reader ever sees a
torn file.

Flags (:data:`CFLAGS`).  ``-ffp-contract=off`` forbids fusing ``a * b +
c`` into one rounding, which would change bits; there is no
``-ffast-math``, so nothing is reassociated, and the j-reduction keeps
numpy's pairwise order.  ``-fno-math-errno`` changes no value: it lets
``sqrt`` be the hardware instruction instead of a libm call that may
set ``errno``, without which the pair loop is not vectorised.
``-march=native`` widens the vectors; IEEE add, multiply, divide and
square root are correctly rounded at any width.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path

import numpy as np

#: The compiled tiles' sources, by the name their library carries.
SOURCES = {
    "pairwise_tile": Path(__file__).with_name("pairwise_tile.c"),
    "pipeline_tile": Path(__file__).parents[1] / "hardware" / "pipeline_tile.c",
    "hermite_tile": Path(__file__).parents[1] / "core" / "hermite_tile.c",
    "network_tile": Path(__file__).parents[1] / "parallel" / "network_tile.c",
}

CFLAGS = (
    "-O3",
    "-march=native",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-shared",
    "-fPIC",
)

#: Which tier serves each tile in this process, and why: tile name ->
#: (``"c"`` | ``"numpy"``, what was built and where, or why not).  Filled
#: by :func:`resolve` as the owners are imported (``import repro``
#: imports all four); the tiers differ in speed only.
TIERS: dict[str, tuple[str, str]] = {}


class TileUnavailable(RuntimeError):
    """The compiled tile cannot be used; the message says why."""


def find_compiler() -> str | None:
    """Path of the system C compiler, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_root() -> Path:
    """The user's cache directory (not created)."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")


def cache_dir() -> Path:
    """The directory compiled tiles live in, ``repro-grape6`` under the
    user's cache: created 0700 if missing, and refused unless it is a
    directory owned by this user that no one else can write to."""
    path = cache_root() / "repro-grape6"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = os.lstat(path)
    except OSError as exc:
        raise TileUnavailable(f"no cache directory: {exc}") from exc
    if not stat.S_ISDIR(st.st_mode):
        raise TileUnavailable(f"cache {path} is not a directory")
    if st.st_uid != os.getuid():
        raise TileUnavailable(f"cache {path} is owned by uid {st.st_uid}, not by this user")
    if st.st_mode & 0o022:
        raise TileUnavailable(
            f"cache {path} is group- or world-writable (mode {stat.S_IMODE(st.st_mode):04o})"
        )
    return path


def cpu_identity() -> str:
    """What ``-march=native`` resolves to on this machine, as far as the
    platform tells: architecture plus the CPU's feature flags.  Without
    ``/proc/cpuinfo`` it is the architecture alone
    (``platform.processor()`` would run ``uname -p`` in a child)."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next(
                (line for line in fh if line.startswith(("flags", "Features"))), ""
            )
    except OSError:
        return platform.machine()
    return f"{platform.machine()} {flags.strip()}"


def compiler_identity(cc: str) -> str:
    """Which compiler ``cc`` is, without running it: the resolved binary
    with its size and modification time, which a compiler upgrade
    changes.  (Running ``cc --version`` at every import would fork this
    process once per run - 1.5 ms, and a child as large as the parent in
    ``RUSAGE_CHILDREN``.)"""
    real = os.path.realpath(cc)
    try:
        st = os.stat(real)
    except OSError as exc:
        raise TileUnavailable(f"cannot stat the compiler {real}: {exc}") from exc
    return f"{real} {st.st_size} {st.st_mtime_ns}"


def _build(cc: str, source: Path, target: Path) -> None:
    """Compile ``source`` to ``target`` via a temporary name."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(source), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise TileUnavailable(f"{cc} exited {proc.returncode}: {tail[0]}")
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise TileUnavailable(f"building with {cc} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def library_path(name: str, cc: str) -> Path:
    """Where the library built from ``SOURCES[name]`` by ``cc`` lives in
    the cache: its name carries a hash of source, flags, compiler and
    CPU, so a change of any of them is a new file."""
    try:
        source = SOURCES[name].read_text()
    except OSError as exc:
        raise TileUnavailable(f"cannot read the tile's source: {exc}") from exc
    key = hashlib.sha256(
        "\0".join((source, " ".join(CFLAGS), compiler_identity(cc), cpu_identity())).encode()
    ).hexdigest()[:16]
    return cache_dir() / f"{name}-{key}.so"


def load_library(name: str):
    """The library built from ``SOURCES[name]``, and a line saying what
    was built and where.  ``ctypes.CDLL`` releases the GIL for a call.

    Raises :class:`TileUnavailable` when there is no compiler, no usable
    cache directory, or the build or the load fails.
    """
    cc = find_compiler()
    if cc is None:
        raise TileUnavailable("no C compiler (cc, gcc, clang) on PATH")
    path = library_path(name, cc)
    if not path.exists():
        _build(cc, SOURCES[name], path)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as exc:
        raise TileUnavailable(f"cannot load {path}: {exc}") from exc
    return library, f"{cc} {' '.join(CFLAGS)} -> {path}"


def resolve(name: str, bind: Callable, self_check: Callable, reference):
    """The tier serving tile ``name``: ``bind(library)`` of
    :func:`load_library`'s library if ``self_check`` passes it (it raises
    :class:`TileUnavailable` unless the tile answers bit for bit as
    ``reference`` does), else ``reference``, the numpy tier; which, and
    why, goes to :data:`TIERS`.  There is nothing to configure.

    An owner calls this once, at import, so that no build, ``dlopen`` or
    self-check falls inside anything a caller times, and forked workers
    inherit the library.  So nothing the loader meets may escape: a
    platform it did not foresee (no home directory, no ``os.getuid``)
    is one more reason for the numpy tier, not a failed import."""
    try:
        library, built = load_library(name)
        tile = bind(library)
        self_check(tile)
    except TileUnavailable as exc:
        TIERS[name] = ("numpy", str(exc))
        return reference
    except Exception as exc:
        TIERS[name] = ("numpy", f"loader failed: {exc!r}")
        return reference
    TIERS[name] = ("c", built)
    return tile


def entry_point(library, symbol: str, argtypes: list, restype=None):
    """``symbol`` of ``library`` with its C signature declared."""
    try:
        fn = getattr(library, symbol)
    except AttributeError as exc:
        raise TileUnavailable(f"{library._name} has no {symbol}") from exc
    fn.argtypes, fn.restype = argtypes, restype
    return fn


_addressof, _first_byte = ctypes.addressof, ctypes.c_char.from_buffer


def address(a: np.ndarray) -> int:
    """Address of an array's first element, for a ``c_void_p`` argument
    or a pointer field of a bound ``ctypes.Structure``.  Through the
    buffer protocol where it can be (``ndarray.ctypes.data`` costs 1 us
    an array, more than a small tile); a read-only or empty array has
    only that."""
    try:
        return _addressof(_first_byte(a))
    except (TypeError, ValueError):  # read-only (or strided), or empty
        return a.ctypes.data
