//! Shadow operation implementations: the simplest sequential versions
//! of the canonical semantics. No caches, no hints, full-path lookups,
//! checks everywhere.

use crate::shadow::{BlockKind, ShadowFd, ShadowFs};
use rae_blockdev::BLOCK_SIZE;
use rae_fsformat::dirent::DirBlock;
use rae_fsformat::inode::{locate_block, BlockPtrLoc, DiskInode, PTRS_PER_BLOCK};
use rae_vfs::{
    split_parent, split_path, DirEntry, Fd, FileStat, FileType, FsError, FsGeometryInfo, FsResult,
    InodeNo, OpenFlags, SetAttr, FIRST_FD, MAX_FILE_SIZE, MAX_LINKS, MAX_OPEN_FILES, ROOT_INO,
};

impl ShadowFs {
    // ------------------------------------------------------------------
    // Block mapping (shared pointer scheme from the format crate)
    // ------------------------------------------------------------------

    fn read_ptr(&mut self, bno: u64, slot: usize) -> FsResult<u64> {
        let img = self.read_block(bno)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(&img[slot * 8..slot * 8 + 8]);
        let ptr = u64::from_le_bytes(b);
        if ptr != 0 {
            self.check(self.geo.is_data_block(ptr), "ptr.in_data_region", || {
                format!("indirect pointer {ptr} outside the data region")
            })?;
        }
        Ok(ptr)
    }

    fn write_ptr(&mut self, bno: u64, slot: usize, value: u64) -> FsResult<()> {
        self.update_block(bno, slot * 8, &value.to_le_bytes(), BlockKind::Meta)
    }

    pub(crate) fn get_file_block(&mut self, inode: &DiskInode, idx: u64) -> FsResult<u64> {
        match locate_block(idx)? {
            BlockPtrLoc::Direct(s) => Ok(inode.direct[s]),
            BlockPtrLoc::Indirect { slot } => {
                if inode.indirect == 0 {
                    Ok(0)
                } else {
                    self.read_ptr(inode.indirect, slot)
                }
            }
            BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                if inode.dindirect == 0 {
                    return Ok(0);
                }
                let l1p = self.read_ptr(inode.dindirect, l1)?;
                if l1p == 0 {
                    Ok(0)
                } else {
                    self.read_ptr(l1p, l2)
                }
            }
        }
    }

    fn ensure_file_block(&mut self, inode: &mut DiskInode, idx: u64) -> FsResult<u64> {
        match locate_block(idx)? {
            BlockPtrLoc::Direct(s) => {
                if inode.direct[s] == 0 {
                    inode.direct[s] = self.alloc_block(BlockKind::Data)?;
                    inode.blocks += 1;
                }
                Ok(inode.direct[s])
            }
            BlockPtrLoc::Indirect { slot } => {
                if inode.indirect == 0 {
                    inode.indirect = self.alloc_block(BlockKind::Meta)?;
                    inode.blocks += 1;
                }
                let mut ptr = self.read_ptr(inode.indirect, slot)?;
                if ptr == 0 {
                    ptr = self.alloc_block(BlockKind::Data)?;
                    inode.blocks += 1;
                    self.write_ptr(inode.indirect, slot, ptr)?;
                }
                Ok(ptr)
            }
            BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                if inode.dindirect == 0 {
                    inode.dindirect = self.alloc_block(BlockKind::Meta)?;
                    inode.blocks += 1;
                }
                let mut l1p = self.read_ptr(inode.dindirect, l1)?;
                if l1p == 0 {
                    l1p = self.alloc_block(BlockKind::Meta)?;
                    inode.blocks += 1;
                    self.write_ptr(inode.dindirect, l1, l1p)?;
                }
                let mut ptr = self.read_ptr(l1p, l2)?;
                if ptr == 0 {
                    ptr = self.alloc_block(BlockKind::Data)?;
                    inode.blocks += 1;
                    self.write_ptr(l1p, l2, ptr)?;
                }
                Ok(ptr)
            }
        }
    }

    fn truncate_core(&mut self, inode: &mut DiskInode, new_size: u64) -> FsResult<()> {
        let old_nb = inode.size.div_ceil(BLOCK_SIZE as u64);
        let new_nb = new_size.div_ceil(BLOCK_SIZE as u64);
        for idx in new_nb..old_nb {
            match locate_block(idx)? {
                BlockPtrLoc::Direct(s) => {
                    if inode.direct[s] != 0 {
                        self.free_block(inode.direct[s])?;
                        inode.direct[s] = 0;
                        inode.blocks -= 1;
                    }
                }
                BlockPtrLoc::Indirect { slot } => {
                    if inode.indirect != 0 {
                        let ptr = self.read_ptr(inode.indirect, slot)?;
                        if ptr != 0 {
                            self.free_block(ptr)?;
                            self.write_ptr(inode.indirect, slot, 0)?;
                            inode.blocks -= 1;
                        }
                    }
                }
                BlockPtrLoc::DoubleIndirect { l1, l2 } => {
                    if inode.dindirect != 0 {
                        let l1p = self.read_ptr(inode.dindirect, l1)?;
                        if l1p != 0 {
                            let ptr = self.read_ptr(l1p, l2)?;
                            if ptr != 0 {
                                self.free_block(ptr)?;
                                self.write_ptr(l1p, l2, 0)?;
                                inode.blocks -= 1;
                            }
                        }
                    }
                }
            }
        }
        if new_nb <= 12 && inode.indirect != 0 {
            self.free_block(inode.indirect)?;
            inode.indirect = 0;
            inode.blocks -= 1;
        }
        if inode.dindirect != 0 {
            let covered = 12 + PTRS_PER_BLOCK as u64;
            if new_nb <= covered {
                for l1 in 0..PTRS_PER_BLOCK {
                    let l1p = self.read_ptr(inode.dindirect, l1)?;
                    if l1p != 0 {
                        self.free_block(l1p)?;
                        self.write_ptr(inode.dindirect, l1, 0)?;
                        inode.blocks -= 1;
                    }
                }
                self.free_block(inode.dindirect)?;
                inode.dindirect = 0;
                inode.blocks -= 1;
            } else {
                let first_live_l1 =
                    ((new_nb - covered).saturating_sub(1) / PTRS_PER_BLOCK as u64 + 1) as usize;
                for l1 in first_live_l1..PTRS_PER_BLOCK {
                    let l1p = self.read_ptr(inode.dindirect, l1)?;
                    if l1p != 0 {
                        self.free_block(l1p)?;
                        self.write_ptr(inode.dindirect, l1, 0)?;
                        inode.blocks -= 1;
                    }
                }
            }
        }
        if !new_size.is_multiple_of(BLOCK_SIZE as u64) && new_size < inode.size {
            let tail_idx = new_size / BLOCK_SIZE as u64;
            let bno = self.get_file_block(inode, tail_idx)?;
            if bno != 0 {
                let from = (new_size % BLOCK_SIZE as u64) as usize;
                let zeros = vec![0u8; BLOCK_SIZE - from];
                self.update_block(bno, from, &zeros, BlockKind::Data)?;
            }
        }
        inode.size = new_size;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directories (scanned fresh every time — no dentry cache)
    // ------------------------------------------------------------------

    fn dir_block_list(&mut self, inode: &DiskInode) -> FsResult<Vec<u64>> {
        self.check(
            inode.size.is_multiple_of(BLOCK_SIZE as u64),
            "dir.size_aligned",
            || format!("directory size {} not block-aligned", inode.size),
        )?;
        let nb = inode.size / BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity(nb as usize);
        for idx in 0..nb {
            let bno = self.get_file_block(inode, idx)?;
            self.check(bno != 0, "dir.no_holes", || {
                format!("hole at directory block {idx}")
            })?;
            out.push(bno);
        }
        Ok(out)
    }

    fn dir_find(&mut self, dir: &DiskInode, name: &str) -> FsResult<Option<(InodeNo, FileType)>> {
        for bno in self.dir_block_list(dir)? {
            let db = DirBlock::from_bytes(self.read_block(bno)?)?;
            self.checks += 1; // every parsed directory block is a validation
            if let Some(rec) = db.find(name) {
                return Ok(Some((rec.ino, rec.ftype)));
            }
        }
        Ok(None)
    }

    fn dir_insert(
        &mut self,
        dir_ino: InodeNo,
        dir: &mut DiskInode,
        name: &str,
        ino: InodeNo,
        ftype: FileType,
    ) -> FsResult<()> {
        for bno in self.dir_block_list(dir)? {
            let mut db = DirBlock::from_bytes(self.read_block(bno)?)?;
            if db.try_insert(name, ino, ftype)? {
                return self.write_block(bno, db.into_bytes(), BlockKind::Meta);
            }
        }
        let nb = dir.size / BLOCK_SIZE as u64;
        let bno = self.ensure_file_block(dir, nb)?;
        let mut db = DirBlock::empty();
        let inserted = db.try_insert(name, ino, ftype)?;
        self.check(inserted, "dir.fresh_block_insert", || {
            "fresh directory block rejected an entry".to_string()
        })?;
        self.write_block(bno, db.into_bytes(), BlockKind::Meta)?;
        dir.size += BLOCK_SIZE as u64;
        let now = self.tick();
        dir.mtime = now;
        self.store_inode(dir_ino, dir)
    }

    fn dir_remove(&mut self, dir_ino: InodeNo, dir: &mut DiskInode, name: &str) -> FsResult<bool> {
        let blocks = self.dir_block_list(dir)?;
        let mut found = false;
        for &bno in &blocks {
            let mut db = DirBlock::from_bytes(self.read_block(bno)?)?;
            if db.remove(name) {
                self.write_block(bno, db.into_bytes(), BlockKind::Meta)?;
                found = true;
                break;
            }
        }
        if !found {
            return Ok(false);
        }
        // shrink trailing empty blocks
        let mut nb = dir.size / BLOCK_SIZE as u64;
        while nb > 0 {
            let last = self.get_file_block(dir, nb - 1)?;
            if last == 0 {
                break;
            }
            let db = DirBlock::from_bytes(self.read_block(last)?)?;
            if !db.is_empty() {
                break;
            }
            self.truncate_core(dir, (nb - 1) * BLOCK_SIZE as u64)?;
            nb -= 1;
        }
        let now = self.tick();
        dir.mtime = now;
        self.store_inode(dir_ino, dir)?;
        Ok(true)
    }

    fn dir_entry_count(&mut self, dir: &DiskInode) -> FsResult<usize> {
        let mut n = 0;
        for bno in self.dir_block_list(dir)? {
            n += DirBlock::from_bytes(self.read_block(bno)?)?.len();
        }
        Ok(n)
    }

    /// All entries of a directory by inode (used by the model builder
    /// and `readdir`).
    pub(crate) fn list_dir(
        &mut self,
        dir_ino: InodeNo,
    ) -> FsResult<Vec<(String, InodeNo, FileType)>> {
        let dir = self.load_inode(dir_ino)?;
        self.check(dir.ftype == FileType::Directory, "dir.is_directory", || {
            format!("{dir_ino} is not a directory")
        })?;
        let mut out = Vec::new();
        for bno in self.dir_block_list(&dir)? {
            let db = DirBlock::from_bytes(self.read_block(bno)?)?;
            for rec in db.records() {
                out.push((rec.name, rec.ino, rec.ftype));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Path resolution: always from the root inode (no dentry cache)
    // ------------------------------------------------------------------

    fn resolve(&mut self, comps: &[&str]) -> FsResult<InodeNo> {
        let mut cur = ROOT_INO;
        for comp in comps {
            let inode = self.load_inode(cur)?;
            if inode.ftype != FileType::Directory {
                return Err(FsError::NotDir);
            }
            match self.dir_find(&inode, comp)? {
                Some((next, _)) => cur = next,
                None => return Err(FsError::NotFound),
            }
        }
        Ok(cur)
    }

    fn resolve_parent<'p>(&mut self, path: &'p str) -> FsResult<(InodeNo, &'p str)> {
        let (parent_comps, name) = split_parent(path)?;
        let parent = self.resolve(&parent_comps)?;
        let pinode = self.load_inode(parent)?;
        if pinode.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        Ok((parent, name))
    }

    fn is_self_or_descendant(&mut self, anc: InodeNo, target: InodeNo) -> FsResult<bool> {
        if anc == target {
            return Ok(true);
        }
        let mut stack = vec![anc];
        while let Some(cur) = stack.pop() {
            for (_, ino, ftype) in self.list_dir(cur)? {
                if ino == target {
                    return Ok(true);
                }
                if ftype == FileType::Directory {
                    stack.push(ino);
                }
            }
        }
        Ok(false)
    }

    fn alloc_fd(&mut self) -> FsResult<Fd> {
        if self.fds.len() >= MAX_OPEN_FILES {
            return Err(FsError::TooManyOpenFiles);
        }
        let mut candidate = FIRST_FD;
        for &fd in self.fds.keys() {
            if fd.0 > candidate {
                break;
            }
            if fd.0 >= candidate {
                candidate = fd.0 + 1;
            }
        }
        Ok(Fd(candidate))
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// `open`, optionally validating the base's inode choice
    /// (constrained mode) instead of allocating.
    pub(crate) fn op_open(
        &mut self,
        path: &str,
        flags: OpenFlags,
        wanted_ino: Option<InodeNo>,
    ) -> FsResult<(Fd, InodeNo, bool)> {
        if !flags.valid() {
            return Err(FsError::InvalidArgument);
        }
        let (parent, name) = self.resolve_parent(path)?;
        let pdir = self.load_inode(parent)?;
        match self.dir_find(&pdir, name)? {
            Some((ino, _)) => {
                if flags.creates() && flags.contains(OpenFlags::EXCL) {
                    return Err(FsError::Exists);
                }
                let mut inode = self.load_inode(ino)?;
                match inode.ftype {
                    FileType::Directory => return Err(FsError::IsDir),
                    FileType::Symlink => return Err(FsError::InvalidArgument),
                    FileType::Regular => {}
                }
                if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                    self.truncate_core(&mut inode, 0)?;
                    let now = self.tick();
                    inode.mtime = now;
                    inode.ctime = now;
                    self.store_inode(ino, &inode)?;
                }
                let fd = self.alloc_fd()?;
                self.fds.insert(
                    fd,
                    ShadowFd {
                        ino,
                        flags,
                        path: path.to_string(),
                    },
                );
                Ok((fd, ino, false))
            }
            None => {
                if !flags.creates() {
                    return Err(FsError::NotFound);
                }
                if self.free_inodes == 0 && wanted_ino.is_none() {
                    return Err(FsError::NoInodes);
                }
                let ino = self.alloc_ino(wanted_ino)?;
                let now = self.tick();
                let inode = DiskInode::new(FileType::Regular, now);
                self.store_inode(ino, &inode)?;
                let mut pdir = self.load_inode(parent)?;
                self.dir_insert(parent, &mut pdir, name, ino, FileType::Regular)?;
                let mut pdir = self.load_inode(parent)?;
                pdir.mtime = now;
                self.store_inode(parent, &pdir)?;
                let fd = self.alloc_fd()?;
                self.fds.insert(
                    fd,
                    ShadowFd {
                        ino,
                        flags,
                        path: path.to_string(),
                    },
                );
                Ok((fd, ino, true))
            }
        }
    }

    pub(crate) fn op_restore_fd(
        &mut self,
        fd: Fd,
        ino: InodeNo,
        flags: OpenFlags,
        path: &str,
    ) -> FsResult<()> {
        let inode = self.load_inode(ino)?; // validates allocation + structure
        self.check(
            inode.ftype == FileType::Regular,
            "restore.regular_file",
            || format!("descriptor restore for non-file {ino}"),
        )?;
        self.check(!self.fds.contains_key(&fd), "restore.fd_free", || {
            format!("descriptor {fd} restored twice")
        })?;
        self.fds.insert(
            fd,
            ShadowFd {
                ino,
                flags,
                path: path.to_string(),
            },
        );
        Ok(())
    }

    pub(crate) fn op_close(&mut self, fd: Fd) -> FsResult<()> {
        self.fds.remove(&fd).map(|_| ()).ok_or(FsError::BadFd)
    }

    pub(crate) fn op_read(&mut self, fd: Fd, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let entry = self.fds.get(&fd).cloned().ok_or(FsError::BadFd)?;
        if !entry.flags.readable() {
            return Err(FsError::BadAccessMode);
        }
        let inode = self.load_inode(entry.ino)?;
        let start = offset.min(inode.size);
        let end = offset.saturating_add(len as u64).min(inode.size);
        let mut out = Vec::with_capacity((end - start) as usize);
        let mut pos = start;
        while pos < end {
            let idx = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - in_blk) as u64).min(end - pos) as usize;
            let bno = self.get_file_block(&inode, idx)?;
            if bno == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let blk = self.read_block(bno)?;
                out.extend_from_slice(&blk[in_blk..in_blk + take]);
            }
            pos += take as u64;
        }
        Ok(out)
    }

    pub(crate) fn op_write(&mut self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        let entry = self.fds.get(&fd).cloned().ok_or(FsError::BadFd)?;
        if !entry.flags.writable() {
            return Err(FsError::BadAccessMode);
        }
        if data.is_empty() {
            return Ok(0);
        }
        let mut inode = self.load_inode(entry.ino)?;
        let at = if entry.flags.contains(OpenFlags::APPEND) {
            inode.size
        } else {
            offset
        };
        let end = at
            .checked_add(data.len() as u64)
            .ok_or(FsError::FileTooBig)?;
        if end > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut pos = at;
        let mut src = 0usize;
        while pos < end {
            let idx = pos / BLOCK_SIZE as u64;
            let in_blk = (pos % BLOCK_SIZE as u64) as usize;
            let take = ((BLOCK_SIZE - in_blk) as u64).min(end - pos) as usize;
            let bno = self.ensure_file_block(&mut inode, idx)?;
            if take == BLOCK_SIZE {
                self.write_block(bno, &data[src..src + take], BlockKind::Data)?;
            } else {
                self.update_block(bno, in_blk, &data[src..src + take], BlockKind::Data)?;
            }
            pos += take as u64;
            src += take;
        }
        if end > inode.size {
            inode.size = end;
        }
        let now = self.tick();
        inode.mtime = now;
        inode.ctime = now;
        self.store_inode(entry.ino, &inode)?;
        Ok(data.len())
    }

    pub(crate) fn op_truncate(&mut self, fd: Fd, size: u64) -> FsResult<()> {
        let entry = self.fds.get(&fd).cloned().ok_or(FsError::BadFd)?;
        if !entry.flags.writable() {
            return Err(FsError::BadAccessMode);
        }
        if size > MAX_FILE_SIZE {
            return Err(FsError::FileTooBig);
        }
        let mut inode = self.load_inode(entry.ino)?;
        if size < inode.size {
            self.truncate_core(&mut inode, size)?;
        } else {
            inode.size = size;
        }
        let now = self.tick();
        inode.mtime = now;
        inode.ctime = now;
        self.store_inode(entry.ino, &inode)
    }

    pub(crate) fn op_setattr(&mut self, path: &str, attr: SetAttr) -> FsResult<()> {
        let comps = split_path(path)?;
        let ino = self.resolve(&comps)?;
        let mut inode = self.load_inode(ino)?;
        if let Some(size) = attr.size {
            match inode.ftype {
                FileType::Directory => return Err(FsError::IsDir),
                FileType::Symlink => return Err(FsError::InvalidArgument),
                FileType::Regular => {}
            }
            if size > MAX_FILE_SIZE {
                return Err(FsError::FileTooBig);
            }
            if size < inode.size {
                self.truncate_core(&mut inode, size)?;
            } else {
                inode.size = size;
            }
            let now = self.tick();
            inode.mtime = now;
            inode.ctime = now;
        }
        if let Some(mtime) = attr.mtime {
            inode.mtime = mtime;
        }
        self.store_inode(ino, &inode)
    }

    pub(crate) fn op_mkdir(
        &mut self,
        path: &str,
        wanted_ino: Option<InodeNo>,
    ) -> FsResult<InodeNo> {
        let (parent, name) = self.resolve_parent(path)?;
        let pdir = self.load_inode(parent)?;
        if self.dir_find(&pdir, name)?.is_some() {
            return Err(FsError::Exists);
        }
        if self.free_inodes == 0 && wanted_ino.is_none() {
            return Err(FsError::NoInodes);
        }
        let ino = self.alloc_ino(wanted_ino)?;
        let now = self.tick();
        let inode = DiskInode::new(FileType::Directory, now);
        self.store_inode(ino, &inode)?;
        let mut pdir = self.load_inode(parent)?;
        self.dir_insert(parent, &mut pdir, name, ino, FileType::Directory)?;
        let mut pdir = self.load_inode(parent)?;
        pdir.links += 1;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        Ok(ino)
    }

    pub(crate) fn op_rmdir(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let pdir = self.load_inode(parent)?;
        let (ino, _) = self.dir_find(&pdir, name)?.ok_or(FsError::NotFound)?;
        let mut inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if self.dir_entry_count(&inode)? != 0 {
            return Err(FsError::NotEmpty);
        }
        let mut pdir = self.load_inode(parent)?;
        let removed = self.dir_remove(parent, &mut pdir, name)?;
        self.check(removed, "rmdir.entry_present", || {
            format!("entry '{name}' vanished during rmdir")
        })?;
        self.truncate_core(&mut inode, 0)?;
        self.free_ino(ino)?;
        self.clear_inode(ino)?;
        let now = self.tick();
        let mut pdir = self.load_inode(parent)?;
        pdir.links -= 1;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)
    }

    pub(crate) fn op_unlink(&mut self, path: &str) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let pdir = self.load_inode(parent)?;
        let (ino, _) = self.dir_find(&pdir, name)?.ok_or(FsError::NotFound)?;
        let mut inode = self.load_inode(ino)?;
        match inode.ftype {
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Regular => {
                if self.fds.values().any(|f| f.ino == ino) {
                    return Err(FsError::Busy);
                }
            }
            FileType::Symlink => {}
        }
        let mut pdir = self.load_inode(parent)?;
        let removed = self.dir_remove(parent, &mut pdir, name)?;
        self.check(removed, "unlink.entry_present", || {
            format!("entry '{name}' vanished during unlink")
        })?;
        inode.links -= 1;
        if inode.links == 0 {
            self.truncate_core(&mut inode, 0)?;
            self.free_ino(ino)?;
            self.clear_inode(ino)?;
        } else {
            let now = self.tick();
            inode.ctime = now;
            self.store_inode(ino, &inode)?;
        }
        let now = self.tick();
        let mut pdir = self.load_inode(parent)?;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)
    }

    pub(crate) fn op_rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let (from_parent, from_name) = self.resolve_parent(from)?;
        let (to_parent, to_name) = self.resolve_parent(to)?;
        let fp = self.load_inode(from_parent)?;
        let (src, src_ftype) = self.dir_find(&fp, from_name)?.ok_or(FsError::NotFound)?;
        if from_parent == to_parent && from_name == to_name {
            return Ok(());
        }
        let src_is_dir = src_ftype == FileType::Directory;
        if src_is_dir && self.is_self_or_descendant(src, to_parent)? {
            return Err(FsError::RenameLoop);
        }
        let tp = self.load_inode(to_parent)?;
        if let Some((dst, dst_ftype)) = self.dir_find(&tp, to_name)? {
            if dst == src {
                return Ok(());
            }
            let mut dst_inode = self.load_inode(dst)?;
            match (src_is_dir, dst_ftype == FileType::Directory) {
                (true, true) => {
                    if self.dir_entry_count(&dst_inode)? != 0 {
                        return Err(FsError::NotEmpty);
                    }
                }
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (false, false) => {
                    if dst_ftype == FileType::Regular && self.fds.values().any(|f| f.ino == dst) {
                        return Err(FsError::Busy);
                    }
                }
            }
            let mut tp = self.load_inode(to_parent)?;
            self.dir_remove(to_parent, &mut tp, to_name)?;
            if dst_ftype == FileType::Directory {
                self.truncate_core(&mut dst_inode, 0)?;
                self.free_ino(dst)?;
                self.clear_inode(dst)?;
                let mut tp = self.load_inode(to_parent)?;
                tp.links -= 1;
                self.store_inode(to_parent, &tp)?;
            } else {
                dst_inode.links -= 1;
                if dst_inode.links == 0 {
                    self.truncate_core(&mut dst_inode, 0)?;
                    self.free_ino(dst)?;
                    self.clear_inode(dst)?;
                } else {
                    self.store_inode(dst, &dst_inode)?;
                }
            }
        }
        let mut fp = self.load_inode(from_parent)?;
        self.dir_remove(from_parent, &mut fp, from_name)?;
        let mut tp = self.load_inode(to_parent)?;
        self.dir_insert(to_parent, &mut tp, to_name, src, src_ftype)?;
        let now = self.tick();
        if src_is_dir && from_parent != to_parent {
            let mut fp = self.load_inode(from_parent)?;
            fp.links -= 1;
            fp.mtime = now;
            self.store_inode(from_parent, &fp)?;
            let mut tp = self.load_inode(to_parent)?;
            tp.links += 1;
            tp.mtime = now;
            self.store_inode(to_parent, &tp)?;
        } else {
            let mut fp = self.load_inode(from_parent)?;
            fp.mtime = now;
            self.store_inode(from_parent, &fp)?;
            if from_parent != to_parent {
                let mut tp = self.load_inode(to_parent)?;
                tp.mtime = now;
                self.store_inode(to_parent, &tp)?;
            }
        }
        Ok(())
    }

    pub(crate) fn op_link(&mut self, existing: &str, new: &str) -> FsResult<()> {
        let comps = split_path(existing)?;
        if comps.is_empty() {
            return Err(FsError::IsDir);
        }
        let src = self.resolve(&comps)?;
        let mut src_inode = self.load_inode(src)?;
        match src_inode.ftype {
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Symlink => return Err(FsError::InvalidArgument),
            FileType::Regular => {}
        }
        if u32::from(src_inode.links) >= MAX_LINKS {
            return Err(FsError::TooManyLinks);
        }
        let (new_parent, new_name) = self.resolve_parent(new)?;
        let np = self.load_inode(new_parent)?;
        if self.dir_find(&np, new_name)?.is_some() {
            return Err(FsError::Exists);
        }
        let mut np = self.load_inode(new_parent)?;
        self.dir_insert(new_parent, &mut np, new_name, src, FileType::Regular)?;
        let now = self.tick();
        src_inode.links += 1;
        src_inode.ctime = now;
        self.store_inode(src, &src_inode)?;
        let mut np = self.load_inode(new_parent)?;
        np.mtime = now;
        self.store_inode(new_parent, &np)
    }

    pub(crate) fn op_symlink(
        &mut self,
        target: &str,
        linkpath: &str,
        wanted_ino: Option<InodeNo>,
    ) -> FsResult<InodeNo> {
        if target.len() > BLOCK_SIZE {
            return Err(FsError::NameTooLong);
        }
        let (parent, name) = self.resolve_parent(linkpath)?;
        let pdir = self.load_inode(parent)?;
        if self.dir_find(&pdir, name)?.is_some() {
            return Err(FsError::Exists);
        }
        if self.free_inodes == 0 && wanted_ino.is_none() {
            return Err(FsError::NoInodes);
        }
        let ino = self.alloc_ino(wanted_ino)?;
        let now = self.tick();
        let mut inode = DiskInode::new(FileType::Symlink, now);
        if !target.is_empty() {
            let bno = self.alloc_block(BlockKind::Data)?;
            let mut blk = vec![0u8; BLOCK_SIZE];
            blk[..target.len()].copy_from_slice(target.as_bytes());
            self.write_block(bno, blk, BlockKind::Data)?;
            inode.direct[0] = bno;
            inode.blocks = 1;
        }
        inode.size = target.len() as u64;
        self.store_inode(ino, &inode)?;
        let mut pdir = self.load_inode(parent)?;
        self.dir_insert(parent, &mut pdir, name, ino, FileType::Symlink)?;
        let mut pdir = self.load_inode(parent)?;
        pdir.mtime = now;
        self.store_inode(parent, &pdir)?;
        Ok(ino)
    }

    pub(crate) fn op_readlink(&mut self, path: &str) -> FsResult<String> {
        let comps = split_path(path)?;
        let ino = self.resolve(&comps)?;
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Symlink {
            return Err(FsError::InvalidArgument);
        }
        self.read_symlink(ino)
    }

    /// The target of symlink `ino` (shared with the model builder).
    pub(crate) fn read_symlink(&mut self, ino: InodeNo) -> FsResult<String> {
        let inode = self.load_inode(ino)?;
        if inode.size == 0 {
            return Ok(String::new());
        }
        self.check(
            inode.direct[0] != 0 && inode.size <= BLOCK_SIZE as u64,
            "symlink.storage",
            || format!("symlink {ino} has inconsistent target storage"),
        )?;
        let blk = self.read_block(inode.direct[0])?;
        String::from_utf8(blk[..inode.size as usize].to_vec()).map_err(|_| FsError::CheckFailed {
            check: "symlink.utf8".to_string(),
            detail: format!("symlink {ino} target is not UTF-8"),
        })
    }

    /// Full contents of file `ino` (model builder support).
    pub(crate) fn read_file_all(&mut self, ino: InodeNo) -> FsResult<Vec<u8>> {
        let inode = self.load_inode(ino)?;
        let mut out = Vec::with_capacity(inode.size as usize);
        let mut pos = 0u64;
        while pos < inode.size {
            let idx = pos / BLOCK_SIZE as u64;
            let take = ((BLOCK_SIZE as u64).min(inode.size - pos)) as usize;
            let bno = self.get_file_block(&inode, idx)?;
            if bno == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let blk = self.read_block(bno)?;
                out.extend_from_slice(&blk[..take]);
            }
            pos += take as u64;
        }
        Ok(out)
    }

    pub(crate) fn op_stat(&mut self, path: &str) -> FsResult<FileStat> {
        let comps = split_path(path)?;
        let ino = self.resolve(&comps)?;
        let inode = self.load_inode(ino)?;
        Ok(Self::stat_of(ino, &inode))
    }

    pub(crate) fn op_fstat(&mut self, fd: Fd) -> FsResult<FileStat> {
        let entry = self.fds.get(&fd).cloned().ok_or(FsError::BadFd)?;
        let inode = self.load_inode(entry.ino)?;
        Ok(Self::stat_of(entry.ino, &inode))
    }

    fn stat_of(ino: InodeNo, inode: &DiskInode) -> FileStat {
        FileStat {
            ino,
            ftype: inode.ftype,
            size: inode.size,
            nlink: u32::from(inode.links),
            blocks: u64::from(inode.blocks),
            mtime: inode.mtime,
            ctime: inode.ctime,
        }
    }

    pub(crate) fn op_readdir(&mut self, path: &str) -> FsResult<Vec<DirEntry>> {
        let comps = split_path(path)?;
        let ino = self.resolve(&comps)?;
        let inode = self.load_inode(ino)?;
        if inode.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        Ok(self
            .list_dir(ino)?
            .into_iter()
            .map(|(name, ino, ftype)| DirEntry { ino, ftype, name })
            .collect())
    }

    pub(crate) fn op_statfs(&mut self) -> FsResult<FsGeometryInfo> {
        Ok(FsGeometryInfo {
            block_size: BLOCK_SIZE as u32,
            total_blocks: self.geo.data_blocks,
            free_blocks: self.free_blocks,
            total_inodes: u64::from(self.geo.inode_count) - 2,
            free_inodes: u64::from(self.free_inodes),
        })
    }
}
